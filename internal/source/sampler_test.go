package source

import (
	"math"
	"strconv"
	"testing"
)

// samplerTimes is a dense, irregular probe grid covering sub-cycle,
// multi-cycle, day-scale and negative times.
func samplerTimes() []float64 {
	ts := []float64{-1.5, -1e-6, 0, 1e-7, 5e-6, 1.0 / 3, 0.4999, 0.5, 1.7, 12.34, 3600.5, 86400 * 1.25}
	for i := 0; i < 500; i++ {
		ts = append(ts, float64(i)*0.0137)
	}
	return ts
}

// TestSamplersMatchRegistry pins the sampler contract for every
// registered supply at its default parameters: VoltageFn/PowerFn must
// return bit-identical values to the interface methods at every probed
// time.
func TestSamplersMatchRegistry(t *testing.T) {
	for _, name := range Names() {
		b, err := Build(name, nil)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if b.V != nil {
			assertVoltageFn(t, name, b.V)
		}
		if b.P != nil {
			assertPowerFn(t, name, b.P)
		}
	}
}

// TestSamplersMatchCombinators covers the wrapper compositions the
// registry does not reach directly.
func TestSamplersMatchCombinators(t *testing.T) {
	gen := &SignalGenerator{Amplitude: 3.3, Frequency: 17, Offset: 0.2, Phase: 0.6, Rs: 120}
	dc := &SignalGenerator{Amplitude: 2.0, Rs: 50} // Frequency 0: DC path
	for name, vs := range map[string]VoltageSource{
		"halfwave":      HalfWave(gen, 0.2),
		"fullwave":      FullWaveRect(gen, 0.3),
		"scaled":        &ScaledVoltage{Source: gen, Gain: 0.7},
		"scaled-dc":     &ScaledVoltage{Source: dc, Gain: 1.3},
		"gated":         &GatedVoltage{Source: gen, Windows: [][2]float64{{0.5, 1.5}, {3, 4}}},
		"gated-invert":  &GatedVoltage{Source: gen, Windows: [][2]float64{{1, 2}}, Invert: true},
		"square-degen":  &SquareWaveVoltage{High: 2.5}, // zero period: constant
		"nested":        HalfWave(&ScaledVoltage{Source: gen, Gain: 0.9}, 0.25),
		"trace-voltage": &TraceSource{Times: []float64{0, 1, 2}, Values: []float64{0, 3, 1}, Loop: true, Rs: 10},
	} {
		assertVoltageFn(t, name, vs)
	}
	for name, ps := range map[string]PowerSource{
		"scaled-power": &ScaledPower{Source: &ConstantPower{P: 5e-3}, Gain: 0.8},
		"sum-power": &SumPower{Sources: []PowerSource{
			&ConstantPower{P: 1e-3},
			&RFBurst{BurstPower: 10e-3, Period: 0.5, Duty: 0.2, JitterFrac: 0.1},
		}},
		"kinetic":     &Kinetic{EventEnergy: 1e-3, EventPeriod: 0.7, Decay: 0.05, Seed: 42},
		"trace-power": &TraceSource{Times: []float64{0, 1}, Values: []float64{1e-3, 2e-3}},
	} {
		assertPowerFn(t, name, ps)
	}
}

func assertVoltageFn(t *testing.T, name string, vs VoltageSource) {
	t.Helper()
	fn := VoltageFn(vs)
	for _, tt := range samplerTimes() {
		want, got := vs.Voltage(tt), fn(tt)
		if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Fatalf("%s: VoltageFn(%g) = %v, Voltage = %v", name, tt, got, want)
		}
	}
}

func assertPowerFn(t *testing.T, name string, ps PowerSource) {
	t.Helper()
	fn := PowerFn(ps)
	for _, tt := range samplerTimes() {
		want, got := ps.Power(tt), fn(tt)
		if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Fatalf("%s: PowerFn(%g) = %v, Power = %v", name, tt, got, want)
		}
	}
}

// squareCases are the square supplies the sampler's fast path must
// reproduce: the eq. (5) bisection bracket's on-times (each with the
// 25 ms outage), the lab-mementos-square supply (registry defaults) and
// the transient-fram-vs-sram supply.
func squareCases() map[string]*SquareWaveVoltage {
	cases := map[string]*SquareWaveVoltage{
		"lab-mementos-square":    {High: 3.3, OnTime: 0.004, OffTime: 0.150, Rs: 100},
		"transient-fram-vs-sram": {High: 3.3, OnTime: 0.025, OffTime: 0.025, Rs: 100},
	}
	for _, on := range []float64{0.0125, 0.025, 0.026001, 0.05, 0.1} {
		cases["eq5-on="+strconv.FormatFloat(on, 'g', -1, 64)] = &SquareWaveVoltage{High: 3.3, OnTime: on, OffTime: 0.025, Rs: 100}
	}
	return cases
}

// squareMismatch returns the first time in ts at which the sampler and
// the method differ bit for bit (NaN payloads aside).
func squareMismatch(sq *SquareWaveVoltage, fn func(float64) float64, ts ...float64) (tt, got, want float64, bad bool) {
	for _, tt := range ts {
		want, got := sq.Voltage(tt), fn(tt)
		if math.Float64bits(want) != math.Float64bits(got) && !(math.IsNaN(want) && math.IsNaN(got)) {
			return tt, got, want, true
		}
	}
	return 0, 0, 0, false
}

// TestSquareSamplerMatchesVoltageAtEveryStep walks each square supply
// through 3 s of 5 µs lab steps, both as exact multiples of the step
// and as the running sum a stepping loop accumulates.
func TestSquareSamplerMatchesVoltageAtEveryStep(t *testing.T) {
	const dt, steps = 5e-6, 600_000
	for name, sq := range squareCases() {
		fn := VoltageFn(sq)
		acc := 0.0
		for i := 0; i <= steps; i++ {
			if tt, got, want, bad := squareMismatch(sq, fn, float64(i)*dt, acc); bad {
				t.Fatalf("%s: VoltageFn(%v) = %v, Voltage = %v", name, tt, got, want)
			}
			acc += dt
		}
	}
}

// TestSquareSamplerMatchesVoltageAtEdges probes every rising and
// falling edge k·period and k·period + on, and their float neighbours
// on both sides, where a reduction off by one quotient would show.
func TestSquareSamplerMatchesVoltageAtEdges(t *testing.T) {
	const kMax = 200_000
	for name, sq := range squareCases() {
		fn := VoltageFn(sq)
		period := sq.OnTime + sq.OffTime
		for k := 0; k <= kMax; k++ {
			for _, edge := range [2]float64{float64(k) * period, float64(k)*period + sq.OnTime} {
				below, above := math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1))
				if tt, got, want, bad := squareMismatch(sq, fn, below, edge, above); bad {
					t.Fatalf("%s: VoltageFn(%v) = %v, Voltage = %v", name, tt, got, want)
				}
			}
		}
	}
}

// TestSquareSamplerMatchesVoltageOnSpecialInputs covers the inputs the
// fast path hands to math.Mod or must survive: signed zero, negative
// time, infinities, NaN, the smallest subnormal, times whose quotient
// is huge or overflows, and extreme periods.
func TestSquareSamplerMatchesVoltageOnSpecialInputs(t *testing.T) {
	times := []float64{
		0, math.Copysign(0, -1), -1e-6, -0.5, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e-300, 1e15, 1e300, math.MaxFloat64, 0.5, 1, 3,
	}
	waves := squareCases()
	waves["period=1e-300"] = &SquareWaveVoltage{High: 2, OnTime: 4e-301, OffTime: 6e-301}
	waves["period=1e300"] = &SquareWaveVoltage{High: 2, OnTime: 4e299, OffTime: 6e299}
	waves["on=0"] = &SquareWaveVoltage{High: 2, OnTime: 0, OffTime: 0.01}
	waves["off=0"] = &SquareWaveVoltage{High: 2, OnTime: 0.01, OffTime: 0}
	for name, sq := range waves {
		fn := VoltageFn(sq)
		if tt, got, want, bad := squareMismatch(sq, fn, times...); bad {
			t.Fatalf("%s: VoltageFn(%v) = %v, Voltage = %v", name, tt, got, want)
		}
	}
}

var sinkVoltage float64

// BenchmarkSquareSampler times one square-supply sample at the eq. (5)
// probe's step grid — the per-step cost the lab pays.
func BenchmarkSquareSampler(b *testing.B) {
	fn := VoltageFn(&SquareWaveVoltage{High: 3.3, OnTime: 0.026001, OffTime: 0.025, Rs: 100})
	const dt = 5e-6
	var v float64
	i := 0
	for b.Loop() {
		v += fn(float64(i) * dt)
		i++
	}
	sinkVoltage = v
}
