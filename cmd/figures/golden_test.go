package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// update rewrites the figures golden from the current build:
//
//	go test ./cmd/figures -run TestGoldenFigures -update
//
// Run it only after verifying an intentional output change.
var update = flag.Bool("update", false, "rewrite testdata/golden/figures.txt from current output")

const goldenPath = "../../testdata/golden/figures.txt"

// TestGoldenFigures byte-compares the serial figures report — every
// registered experiment, in registration order — against the committed
// golden, pinning the paper's figure and equation reproductions.
func TestGoldenFigures(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workers", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("figures output differs from %s (run with -update after verifying the change is intended)\n--- want\n%s\n--- got\n%s",
			goldenPath, want, out.Bytes())
	}
}
