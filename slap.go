// Package slap is a from-scratch Go implementation of SLAP — a Supervised
// Learning Approach for Priority-cuts technology mapping (Lau Neto et al.,
// DAC 2021) — together with every substrate the paper depends on: an
// And-Inverter-Graph subject-graph representation, k-feasible priority-cuts
// enumeration, NPN Boolean matching against a standard-cell library, an
// ABC-style delay-oriented mapper with area recovery, static timing
// analysis, benchmark circuit generators, and a small CNN stack used to
// learn cut sorting/filtering heuristics.
//
// This root package is a thin facade over the implementation packages; it
// re-exports the types and entry points a downstream user needs:
//
//	g := slap.NewAIG("my_design")        // build a subject graph
//	lib := slap.ASAP7ish()               // the built-in cell library
//	res, err := slap.Map(g, slap.MapOptions{Library: lib, Policy: slap.DefaultPolicy{}})
//
//	trained, report, err := slap.Train(slap.TrainOptions{Library: lib})
//	res, err = trained.MapStreamContext(ctx, g) // ML-filtered mapping
//
// See the examples/ directory for complete programs and DESIGN.md for the
// module map and the paper-reproduction notes.
package slap

import (
	"io"

	"slap/internal/aig"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
	"slap/internal/netlist"
	"slap/internal/nn"
)

// AIG is an And-Inverter Graph subject graph.
type AIG = aig.AIG

// Lit is an AIG edge literal (2*node + complement bit).
type Lit = aig.Lit

// Library is a standard-cell library.
type Library = library.Library

// Gate is one standard cell.
type Gate = library.Gate

// Netlist is a technology-mapped gate-level netlist.
type Netlist = netlist.Netlist

// MapOptions configures a mapping run.
type MapOptions = mapper.Options

// MapResult is the outcome of a mapping run.
type MapResult = mapper.Result

// CutPolicy orders and prunes per-node cut lists during enumeration.
type CutPolicy = cuts.Policy

// DefaultPolicy is the vanilla ABC heuristic: sort by leaf count, filter
// dominated cuts, keep 250 per node.
type DefaultPolicy = cuts.DefaultPolicy

// UnlimitedPolicy keeps every enumerated cut (the paper's "Unlimited ABC").
type UnlimitedPolicy = cuts.UnlimitedPolicy

// ShufflePolicy randomly permutes and truncates cut lists (paper §III).
type ShufflePolicy = cuts.ShufflePolicy

// SLAP is a trained ML cut-filtering instance.
type SLAP = core.SLAP

// TrainOptions configures end-to-end SLAP training.
type TrainOptions = core.TrainOptions

// TrainReport summarises a training run.
type TrainReport = core.TrainReport

// Model is the CNN cut classifier.
type Model = nn.Model

// NewAIG returns an empty subject graph containing only the constant node.
func NewAIG(name string) *AIG { return aig.New(name) }

// ReadAAG parses an ASCII AIGER (aag) combinational file.
func ReadAAG(r io.Reader) (*AIG, error) { return aig.ReadAAG(r) }

// ASAP7ish returns the built-in synthetic 7nm-flavoured cell library.
func ASAP7ish() *Library { return library.ASAP7ish() }

// ParseLibrary reads a library in the genlib-like text format.
func ParseLibrary(name string, r io.Reader) (*Library, error) {
	return library.Parse(name, r)
}

// Map runs the technology-mapping flow on g.
func Map(g *AIG, opt MapOptions) (*MapResult, error) { return mapper.MapStream(g, opt) }

// Train generates training data, fits the SLAP classifier and returns the
// trained instance plus an accuracy report.
func Train(opt TrainOptions) (*SLAP, *TrainReport, error) { return core.Train(opt) }

// NewSLAP wraps a deserialised model and a library into a SLAP instance
// with the paper's default thresholds.
func NewSLAP(model *Model, lib *Library) *SLAP { return core.New(model, lib) }

// LoadModel reads a model saved with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return nn.Load(r) }
