package noise

import (
	"pooleddata/internal/decoder"
	"pooleddata/internal/threshgt"
)

// SchemeParams describe the decode instance a decoder is selected for:
// the design dimensions and the target weight. Calibration hooks receive
// them so a policy can switch algorithms by operating point, not just by
// noise kind.
type SchemeParams struct {
	// N is the signal length, M the query count of the design.
	N, M int
	// K is the signal's Hamming weight.
	K int
}

// Selector is a calibration hook: it maps a canonical model plus scheme
// parameters to a decoder, overriding the policy's default for that
// kind.
type Selector func(Model, SchemeParams) decoder.Decoder

// Policy maps a noise model to the most robust decoder for it. The zero
// value is the default policy:
//
//	exact        → the paper's MN-Algorithm
//	gaussian σ   → MN with swap refinement (mn-refined) for small σ;
//	               at σ ≥ SigmaLP the box-constrained LP relaxation,
//	               whose least-squares objective matches the Gaussian
//	               likelihood (judged with the model's residual slack)
//	threshold T  → the threshold-GT scoring decoder (COMP-style for T=1)
//
// The crossover exists because swap refinement repairs a handful of
// noise-flipped ranks cheaply: each step re-runs MN's Ψ over the
// residual and commits the one swap among the entries it points at that
// lowers the L1 misfit most. At large σ the MN score ordering itself
// degrades and the relaxation's global objective wins.
type Policy struct {
	// SigmaLP is the Gaussian σ at or above which the policy prefers the
	// LP relaxation over swap-refined MN; 0 means 3.
	SigmaLP float64
	// Overrides, keyed by canonical Kind, take precedence over the
	// defaults — the per-model calibration hook.
	Overrides map[Kind]Selector
}

func (p Policy) sigmaLP() float64 {
	if p.SigmaLP <= 0 {
		return 3
	}
	return p.SigmaLP
}

// Select returns the decoder the policy picks for (m, sp). The result is
// never nil.
func (p Policy) Select(m Model, sp SchemeParams) decoder.Decoder {
	c := m.Canon()
	if sel, ok := p.Overrides[c.Kind]; ok && sel != nil {
		if dec := sel(c, sp); dec != nil {
			return dec
		}
	}
	switch c.Kind {
	case Gaussian:
		if c.Sigma >= p.sigmaLP() {
			return decoder.LP{}
		}
		return decoder.Refined{}
	case Threshold:
		return threshgt.Scored{}
	default:
		return decoder.MN{}
	}
}

// DefaultPolicy is the process-wide policy SelectDecoder consults.
var DefaultPolicy = Policy{}

// SelectDecoder maps a model plus scheme parameters to the most robust
// decoder under the default policy — the engine's server-side selection
// entry point for jobs that do not pin a decoder explicitly.
func SelectDecoder(m Model, sp SchemeParams) decoder.Decoder {
	return DefaultPolicy.Select(m, sp)
}
