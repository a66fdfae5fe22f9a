package tasklib

import (
	"fmt"

	"vdce/internal/dsp"
	"vdce/internal/repository"
)

// registerSignalLibrary adds the signal-processing library: synthesize,
// filter, transform, and analyze 1-D signals — the radar/sonar flavor of
// workload the paper's C3I motivation implies.
func registerSignalLibrary(reg func(Spec)) {
	const nominalN = 4096
	nOps := float64(nominalN)

	reg(Spec{
		Name: "Signal_Generate", Library: "signal", InPorts: 0, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps * 10,
			RequiredMemBytes: nominalN * 8,
			BaseTime:         baseTimeFor(nOps * 10),
		},
		// Args: n (power of two), f1/a1, f2/a2 tone pairs, noise, seed.
		Fn: func(c *Context) ([]Value, error) {
			n, err := c.IntArg("n", nominalN)
			if err != nil {
				return nil, err
			}
			if !dsp.IsPowerOfTwo(n) {
				return nil, fmt.Errorf("tasklib: Signal_Generate n=%d not a power of two", n)
			}
			seed, err := c.Int64Arg("seed", 1)
			if err != nil {
				return nil, err
			}
			noise, err := c.FloatArg("noise", 0.1)
			if err != nil {
				return nil, err
			}
			var tones [][2]float64
			for i := 1; i <= 4; i++ {
				f, err := c.FloatArg(fmt.Sprintf("f%d", i), 0)
				if err != nil {
					return nil, err
				}
				a, err := c.FloatArg(fmt.Sprintf("a%d", i), 0)
				if err != nil {
					return nil, err
				}
				if f > 0 && a != 0 {
					tones = append(tones, [2]float64{f, a})
				}
			}
			if len(tones) == 0 {
				tones = [][2]float64{{float64(n) / 32, 1}}
			}
			return []Value{dsp.Synthesize(n, tones, noise, seed)}, nil
		},
	})

	reg(Spec{
		Name: "Lowpass_Filter", Library: "signal", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps * 63,
			RequiredMemBytes: 2 * nominalN * 8,
			BaseTime:         baseTimeFor(nOps * 63),
		},
		Fn: func(c *Context) ([]Value, error) {
			sig, err := c.Vector(0)
			if err != nil {
				return nil, err
			}
			taps, err := c.IntArg("taps", 63)
			if err != nil {
				return nil, err
			}
			cutoff, err := c.FloatArg("cutoff", 0.1)
			if err != nil {
				return nil, err
			}
			h, err := dsp.LowpassFIR(taps, cutoff)
			if err != nil {
				return nil, err
			}
			filtered := dsp.Convolve(sig, h)
			// Keep the original length (and power-of-two property) by
			// trimming the filter's group delay from both ends.
			delay := (taps - 1) / 2
			if len(filtered) >= len(sig)+2*delay-1 {
				filtered = filtered[delay : delay+len(sig)]
			}
			return []Value{filtered}, nil
		},
	})

	reg(Spec{
		Name: "Power_Spectrum", Library: "signal", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     nOps * 12, // ~ n log n
			CommunicationBytes: nominalN * 8,
			RequiredMemBytes:   4 * nominalN * 8,
			BaseTime:           baseTimeFor(nOps * 12),
			Parallelizable:     true,
			SerialFraction:     0.3,
		},
		Fn: func(c *Context) ([]Value, error) {
			sig, err := c.Vector(0)
			if err != nil {
				return nil, err
			}
			ps, err := dsp.PowerSpectrum(sig)
			if err != nil {
				return nil, err
			}
			return []Value{ps}, nil
		},
	})

	reg(Spec{
		Name: "Peak_Detect", Library: "signal", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps,
			RequiredMemBytes: nominalN * 8,
			BaseTime:         baseTimeFor(nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			spec, err := c.Vector(0)
			if err != nil {
				return nil, err
			}
			thr, err := c.FloatArg("threshold", 1)
			if err != nil {
				return nil, err
			}
			return []Value{dsp.FindPeaks(spec, thr)}, nil
		},
	})
}
