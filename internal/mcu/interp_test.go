package mcu

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// codeRAM is a peripheral that behaves like RAM but logs every register
// read, so an extra or missing instruction-byte read in the MMIO window
// shows up as a state difference.
type codeRAM struct {
	mem   [DefaultMMIOLen]byte
	reads []uint16
}

func (p *codeRAM) ReadReg(off uint16) byte {
	p.reads = append(p.reads, off)
	return p.mem[off]
}

func (p *codeRAM) WriteReg(off uint16, v byte) { p.mem[off] = v }

// interpSys is one core wired to its own bus, plus the logs its trap
// handlers keep.
type interpSys struct {
	core   *isa.Core
	bus    *Bus
	periph *codeRAM
	traps  []string
}

// interpCase is one program run through both interpreter paths.
type interpCase struct {
	name string
	src  string
	// patch, if set, edits memory after the program is loaded.
	patch func(b *Bus)
	// sys, if set, handles SYS traps (after the trap is logged).
	sys func(code uint16, c *isa.Core, b *Bus)
	// check, if set, asserts the reference run's final state.
	check func(t *testing.T, s *interpSys)
}

func newInterpSys(t *testing.T, tc interpCase, framWait uint64) *interpSys {
	t.Helper()
	prog, err := isa.Assemble(tc.src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := &interpSys{bus: NewBus(), periph: &codeRAM{}}
	s.bus.MMIOBase, s.bus.MMIOLen, s.bus.Periph = DefaultMMIOBase, DefaultMMIOLen, s.periph
	s.bus.FRAMWait = framWait
	prog.LoadInto(s.bus)
	if tc.patch != nil {
		tc.patch(s.bus)
	}
	s.periph.reads = nil // loading is not execution
	s.core = &isa.Core{Bus: s.bus}
	s.core.Reset(prog.Entry)
	s.core.R[isa.SP] = 0x0f00
	s.core.Sys = func(code uint16, c *isa.Core) {
		s.traps = append(s.traps, fmt.Sprintf("SYS %d pc=%04x cyc=%d", code, c.PC, c.Cycles))
		if tc.sys != nil {
			tc.sys(code, c, s.bus)
		}
	}
	s.core.Checkpoint = func(c *isa.Core) {
		s.traps = append(s.traps, fmt.Sprintf("CHK pc=%04x cyc=%d", c.PC, c.Cycles))
	}
	return s
}

// stepBudget is RunBudget's reference: Step in a loop, charging each
// instruction's cycle delta to the budget and returning right after a
// SYS or CHK trap.
func stepBudget(c *isa.Core, budget float64) (float64, uint64, error) {
	var spent uint64
	for budget >= 1 && !c.Halted {
		before := c.Cycles
		in, err := c.Step()
		if err != nil {
			return budget, spent, err
		}
		d := c.Cycles - before
		budget -= float64(d)
		spent += d
		if in.Op == isa.OpSYS || in.Op == isa.OpCHK {
			break
		}
	}
	return budget, spent, nil
}

// interpState is everything the two paths must agree on after a chunk.
type interpState struct {
	R              [16]uint16
	PC, HI         uint16
	ZF, NF, CF, GE bool
	Halted         bool
	Cycles         uint64
	Budget         float64
	Spent          uint64
	Err            string
	Traps          []string
	MMIOReads      []uint16
}

func captureInterp(s *interpSys, budget float64, spent uint64, err error) interpState {
	c := s.core
	st := interpState{
		R: c.R, PC: c.PC, HI: c.HI,
		ZF: c.ZF, NF: c.NF, CF: c.CF, GE: c.GE,
		Halted: c.Halted, Cycles: c.Cycles,
		Budget: budget, Spent: spent,
		Traps:     append([]string(nil), s.traps...),
		MMIOReads: append([]uint16(nil), s.periph.reads...),
	}
	if err != nil {
		st.Err = err.Error()
	}
	return st
}

// firstDiff returns the first differing offset of two equal-length
// memories, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestRunBudgetMatchesStep runs each program through RunBudget in small
// budget chunks and through a Step loop with the same chunks, and
// requires identical core state, budget accounting, errors, trap and
// peripheral-read logs, and SRAM/FRAM contents after every chunk.
func TestRunBudgetMatchesStep(t *testing.T) {
	cases := []interpCase{
		{
			// Code in the MMIO window: no fetch window exists there, so
			// RunBudget falls back to Step, whose Read8 fetch has side
			// effects (the read log) and must read bytes 2–3 only for a
			// 4-byte opcode.
			name: "mmio-code",
			src: `
.org 0x4000
start:
    MOVI r1, #3
    JMP  0x2000
back:
    ADD  r2, r1
    HALT
.org 0x2000
    MOVI r1, #5        ; 4 bytes: offsets 0-3
    ADD  r2, r1        ; 2 bytes: offsets 4-5 only
    NOT  r3            ; 2 bytes: offsets 6-7 only
    JMP  back          ; 4 bytes: offsets 8-11
`,
			check: func(t *testing.T, s *interpSys) {
				want := []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
				if !reflect.DeepEqual(s.periph.reads, want) {
					t.Errorf("MMIO fetch reads = %v, want %v", s.periph.reads, want)
				}
				if s.core.R[2] != 10 {
					t.Errorf("r2 = %d, want 10", s.core.R[2])
				}
			},
		},
		{
			// A 2-byte instruction at the FRAM tail has no usable fetch
			// window (pc+3 is past the region), and the PC wraps into
			// SRAM after it.
			name: "fram-tail-wrap",
			src: `
.org 0x4000
start:
    MOVI r1, #4
    JMP  0xfff8
.org 0xfff8
    ADDI r1, #1        ; 0xfff8-0xfffb
    MOV  r3, r1        ; 0xfffc
`,
			patch: func(b *Bus) {
				var buf [4]byte
				n := isa.Instr{Op: isa.OpADD, Dst: 2, Src: 1}.Encode(buf[:])
				b.WriteRange(0xfffe, buf[:n]) // wraps to 0x0000 next
				n = isa.Instr{Op: isa.OpADDI, Dst: 2, Imm: 100}.Encode(buf[:])
				b.WriteRange(0x0000, buf[:n])
				n = isa.Instr{Op: isa.OpHALT}.Encode(buf[:])
				b.WriteRange(0x0004, buf[:n])
			},
			check: func(t *testing.T, s *interpSys) {
				if s.core.R[2] != 105 || s.core.R[3] != 5 || s.core.PC != 0x0006 {
					t.Errorf("r2=%d r3=%d pc=%04x, want 105, 5, 0006", s.core.R[2], s.core.R[3], s.core.PC)
				}
			},
		},
		{
			// An undefined opcode ends the block before it; the fault is
			// reported at its address and the core halts there.
			name: "undefined-opcode",
			src: `
.org 0x4000
start:
    MOVI r1, #1
    ADDI r1, #2
    MOV  r2, r1
    .byte 0xff, 0x00
    MOVI r1, #99
    HALT
`,
			check: func(t *testing.T, s *interpSys) {
				if !s.core.Halted || s.core.R[1] != 3 || s.core.PC != 0x400a {
					t.Errorf("halted=%v r1=%d pc=%04x, want true, 3, 400a", s.core.Halted, s.core.R[1], s.core.PC)
				}
			},
		},
		{
			// Each iteration stores into the immediate of an instruction
			// later in the same block, which must see the new value.
			name: "store-into-running-block",
			src: `
.org 0x4000
start:
    MOVI r4, #5
loop:
    MOVI r1, #patch
    ST   [r1+2], r4    ; rewrite patch's immediate
    ADD  r6, r6
patch:
    MOVI r3, #0
    ADD  r5, r3
    SUBI r4, #1
    JNZ  loop
    HALT
`,
			check: func(t *testing.T, s *interpSys) {
				if s.core.R[5] != 5+4+3+2+1 {
					t.Errorf("r5 = %d, want 15: a stale immediate ran", s.core.R[5])
				}
			},
		},
		{
			// SYS and CHK return to the caller right after their handler;
			// the SYS handler also rewrites the loop counter in memory.
			name: "sys-and-chk-traps",
			src: `
.org 0x4000
start:
    MOVI r4, #3
loop:
    ADDI r1, #1
    CHK
    SYS  #7
    ST   [r0+0x100], r1
    LD   r4, [r0+0x102]
    CMPI r4, #0
    JNZ  loop
    HALT
`,
			sys: func(code uint16, c *isa.Core, b *Bus) {
				c.R[1] += 10
				b.Write16(0x102, uint16(3-c.R[1]/11)) // stop after three rounds
			},
			check: func(t *testing.T, s *interpSys) {
				if len(s.traps) != 6 || s.core.R[1] != 33 {
					t.Errorf("traps=%d r1=%d, want 6, 33", len(s.traps), s.core.R[1])
				}
			},
		},
		{
			// A routine is copied into SRAM and run; the SYS handler then
			// scrambles SRAM, and the next round copies and runs it again.
			name: "sram-copy-then-scramble",
			src: `
.org 0x4000
start:
    MOVI r6, #3
round:
    MOVI r1, #routine
    MOVI r2, #0x0100
    MOVI r3, #routine_end-routine
copy:
    LD   r4, [r1+0]
    ST   [r2+0], r4
    ADDI r1, #2
    ADDI r2, #2
    SUBI r3, #2
    JNZ  copy
    CALL 0x0100
    SYS  #1            ; scramble SRAM
    SUBI r6, #1
    JNZ  round
    HALT
routine:
    ADDI r5, #1
    ADD  r7, r5
    RET
routine_end:
`,
			sys: func(code uint16, c *isa.Core, b *Bus) {
				b.ScrambleSRAM(uint32(c.Cycles))
			},
			check: func(t *testing.T, s *interpSys) {
				if s.core.R[5] != 3 || s.core.R[7] != 1+2+3 {
					t.Errorf("r5=%d r7=%d, want 3, 6", s.core.R[5], s.core.R[7])
				}
			},
		},
		{
			// Scrambled SRAM executed as code: whatever the bytes decode
			// to, both paths must run (or fault on) them identically.
			name: "scrambled-sram-executed",
			src: `
.org 0x4000
start:
    SYS  #1            ; scramble SRAM
    JMP  0x0100
`,
			sys: func(code uint16, c *isa.Core, b *Bus) {
				b.ScrambleSRAM(0x5eed)
			},
		},
	}
	const maxCycles = 20000
	for _, tc := range cases {
		for _, wait := range []uint64{0, 1} {
			for _, chunk := range []float64{1, 2, 3, 7, 64, maxCycles} {
				name := fmt.Sprintf("%s/wait=%d/chunk=%g", tc.name, wait, chunk)
				t.Run(name, func(t *testing.T) {
					fast, ref := newInterpSys(t, tc, wait), newInterpSys(t, tc, wait)
					// Bounded by simulated cycles, since scrambled code need
					// not halt, and by chunk count as a backstop.
					var total uint64
					for i := 0; i < maxCycles && total < maxCycles && !ref.core.Halted; i++ {
						fb, fs, ferr := fast.core.RunBudget(chunk)
						rb, rs, rerr := stepBudget(ref.core, chunk)
						got, want := captureInterp(fast, fb, fs, ferr), captureInterp(ref, rb, rs, rerr)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("chunk %d: RunBudget state\n%+v\nStep state\n%+v", i, got, want)
						}
						if d := firstDiff(fast.bus.SRAM, ref.bus.SRAM); d >= 0 {
							t.Fatalf("chunk %d: SRAM differs at 0x%04x", i, int(fast.bus.SRAMBase)+d)
						}
						if d := firstDiff(fast.bus.FRAM, ref.bus.FRAM); d >= 0 {
							t.Fatalf("chunk %d: FRAM differs at 0x%04x", i, int(fast.bus.FRAMBase)+d)
						}
						total += rs
					}
					if tc.check != nil {
						tc.check(t, ref)
					}
				})
			}
		}
	}
}
