package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/experiments"
)

// flow is what a workload's map requests ask for. The traced replay runs
// the same flow in-process.
type flow struct {
	policy  string // slap or default
	rounds  int
	choices bool
	lut     bool // every design is also mapped with target=lut, after asic
}

func (f flow) targets() []string {
	if f.lut {
		return []string{"asic", "lut"}
	}
	return []string{"asic"}
}

// query is the /v1/map query of the flow for one target. ASIC requests ask
// for the server's verification and a BLIF netlist, which the harness
// checks independently.
func (f flow) query(target string) string {
	q := url.Values{"policy": {f.policy}, "target": {target}}
	if f.policy == "slap" {
		q.Set("model", modelName)
	}
	if f.rounds > 1 {
		q.Set("rounds", strconv.Itoa(f.rounds))
	}
	if f.choices {
		q.Set("choices", "1")
	}
	if target == "asic" {
		q.Set("verify", "1")
		q.Set("netlist", "blif")
	}
	return q.Encode()
}

// design is one Table II generator instance before perturbation.
type design struct {
	name string
	g    *aig.AIG
}

// workload is one traffic mix with its own server configuration.
type workload struct {
	name    string
	flags   []string // slap-serve flags
	profile string   // experiments profile the design sizes come from
	exclude []string // Table II rows left out (see designs)
	flow    flow
	replay  bool // seeded mixed trace with two clients instead of cold passes
}

// workloads are the benchmark's traffic mixes; bench/README.md gives the
// reason for each and for every excluded design.
var workloads = []*workload{
	{
		// The paper's flow as a designer runs it: exhaustive enumeration,
		// embedding, CNN inference through the coalescer and ASIC matching
		// on fresh inputs; no cache or choice view is involved.
		name:    "slap_asic_cold",
		flags:   []string{"-result-cache", "0"},
		profile: "tiny",
		exclude: []string{"AES", "Pico RISCV"},
		flow:    flow{policy: "slap"},
	},
	{
		// The vanilla priority-cuts baseline at paper scale, bypassing
		// inference: enumeration and both multi-round engines dominate.
		// Designs above 12k ANDs are left out: with them the server's peak
		// RSS nears 700 MB and a pass takes about 7 s, two per window.
		name:    "default_r4_paper",
		flags:   []string{"-result-cache", "0"},
		profile: "paper",
		exclude: []string{"AES", "64b_mult", "mul64-booth", "square"},
		flow:    flow{policy: "default", rounds: 4, lut: true},
	},
	{
		// Choice-view construction (mostly SAT proving) and mapping over a
		// graph about three times larger; the LUT request reads the view
		// the ASIC request built.
		name:    "slap_choices_r4",
		flags:   []string{"-result-cache", "0"},
		profile: "tiny",
		exclude: []string{"AES", "Pico RISCV", "sin", "mul64-booth", "64b_mult"},
		flow:    flow{policy: "slap", rounds: 4, choices: true, lut: true},
	},
	{
		// A service under a seeded trace: cache hits beside misses and
		// evictions, ECO delta remaps, cold maps, and the coalescer and the
		// scheduler under two concurrent callers. The result cache is pinned
		// to half of the 40 MB that one 15 s window's distinct results
		// occupy with an unbounded cache, so evictions happen.
		name:    "serve_replay",
		flags:   []string{"-result-cache", "19"},
		profile: "tiny",
		exclude: []string{"AES", "Pico RISCV", "sin"},
		flow:    flow{policy: "slap"},
		replay:  true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// clients is the number of closed-loop client goroutines, each with its
// own connection; never more than the two cores the benchmark targets.
func (w *workload) clients() int {
	if w.replay {
		return 2
	}
	return 1
}

// designs builds the workload's Table II generators; the smoke scale keeps
// the two smallest.
func (w *workload) designs(smoke bool) ([]design, error) {
	p, err := experiments.ByName(w.profile)
	if err != nil {
		return nil, err
	}
	var out []design
	for _, d := range experiments.Designs(p) {
		if !slices.Contains(w.exclude, d.Name) {
			out = append(out, design{d.Name, d.Build()})
		}
	}
	if smoke {
		slices.SortStableFunc(out, func(a, b design) int { return a.g.NumAnds() - b.g.NumAnds() })
		out = out[:2]
	}
	return out, nil
}

// mix derives a perturbation seed from the run seed and a position, so the
// same --seed always produces the same inputs.
func mix(vs ...int64) int64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		x ^= uint64(v)
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// perturbFlips is how many AND nodes a cold pass expects to edit (each has
// its first fanin complemented): any edit makes the design new to every
// cache, and a handful keeps its size and cost close to the generator's, so
// runs with different seeds do the same work.
const perturbFlips = 3

// perturbFraction is the Perturb fraction that edits about perturbFlips
// AND nodes of g.
func perturbFraction(g *aig.AIG) float64 { return perturbFlips / float64(g.NumAnds()) }

// fresh perturbs base until the result differs structurally from every
// input already sent for this design (a few expected edits leave it
// unchanged now and then), so cold passes never repeat.
func fresh(base *aig.AIG, seen map[uint64]bool, seed int64, fraction float64) *aig.AIG {
	for i := int64(0); ; i++ {
		g := circuits.Perturb(base, mix(seed, i), fraction)
		if h := g.StructuralHash(); !seen[h] {
			seen[h] = true
			return g
		}
	}
}

// warmUp sends one request of every kind the workload uses on a design
// outside every workload, so lazy server set-up (coalescer, library memo,
// first-use allocations) is not timed.
func warmUp(ctx context.Context, c *client, w *workload) error {
	g := circuits.CarryLookaheadAdder(8)
	body := encode(g)
	var reqs []*request
	for _, t := range w.flow.targets() {
		reqs = append(reqs, &request{path: "/v1/map", query: w.flow.query(t), target: t, body: body, g: g})
	}
	if w.replay {
		for _, class := range []string{"choices", "default", "classify"} {
			reqs = append(reqs, replayRequest(class, "warm", g, body))
		}
	}
	for _, r := range reqs {
		if s := c.do(ctx, r); s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// runCold sends every design once per pass, each pass a fresh perturbation,
// from one closed-loop client. Passes are whole, so every design has the
// same number of samples and the first pass (the reference set) is the same
// for a given seed; passes continue while the next one would end closer to
// the window than stopping now.
func runCold(ctx context.Context, c *client, w *workload, designs []design, seed int64, window time.Duration) []sample {
	var out []sample
	seen := make([]map[uint64]bool, len(designs))
	for i := range seen {
		seen[i] = map[uint64]bool{designs[i].g.StructuralHash(): true}
	}
	start := time.Now()
	for pass := 0; ctx.Err() == nil; pass++ {
		if elapsed := time.Since(start); pass > 0 && elapsed+elapsed/time.Duration(2*pass) > window {
			return out
		}
		for i, d := range designs {
			g := fresh(d.g, seen[i], mix(seed, int64(pass), int64(i)), perturbFraction(d.g))
			body := encode(g)
			for _, t := range w.flow.targets() {
				r := &request{design: d.name, path: "/v1/map", query: w.flow.query(t), target: t, body: body, g: g, ref: pass == 0}
				out = append(out, c.do(ctx, r))
			}
		}
	}
	return out
}

// qorPass maps every design as generated, unperturbed, with the workload's
// flow for both targets after the timed window, so every workload carries
// ASIC and LUT QoR side by side. QoR thus depends on the commit alone, not
// on the seed, and lines up with the paper's Table II rows.
func qorPass(ctx context.Context, c *client, w *workload, designs []design) []sample {
	var out []sample
	for _, d := range designs {
		body := encode(d.g)
		for _, t := range []string{"asic", "lut"} {
			r := &request{design: d.name, path: "/v1/map", query: w.flow.query(t), target: t, body: body, g: d.g}
			out = append(out, c.do(ctx, r))
		}
	}
	return out
}

// replayBlock is the replay's traffic mix per block of 20 requests, sent in
// a fixed shuffled order within each block. A fixed composition keeps every
// class's share exact in every run, so percentiles do not drift with a
// sampled mix:
//
//	hit      45%  exact repeat of a design's latest version (result cache)
//	edit     20%  localised edit of a design's latest version (ECO delta remap)
//	cold     10%  heavily perturbed design (cold map)
//	choices  10%  one of three choices=1&rounds=4 designs, mostly repeats
//	default  10%  policy=default map of a design's latest version
//	classify  5%  /v1/classify of a design's latest version
var replayBlock = []string{
	"hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit",
	"edit", "edit", "edit", "edit",
	"cold", "cold",
	"choices", "choices",
	"default", "default",
	"classify",
}

// replayRequest builds one replay request of the given class over g. Like
// a synthesis script's, no request names a worker count, so each takes the
// server's whole worker budget.
func replayRequest(class, design string, g *aig.AIG, body []byte) *request {
	r := &request{design: design, path: "/v1/map", target: "asic", body: body, g: g}
	switch class {
	case "choices":
		r.query = flow{policy: "slap", rounds: 4, choices: true}.query("asic")
	case "default":
		r.query = flow{policy: "default"}.query("asic")
	case "classify":
		r.path, r.target = "/v1/classify", ""
		r.query = url.Values{"model": {modelName}}.Encode()
	default:
		r.query = flow{policy: "slap"}.query("asic")
	}
	return r
}

// replayTrace generates n requests from the seed. It opens with the initial
// version of every design (the reference set), then repeats replayBlock.
// Every class walks the designs round-robin, so each run spreads each class
// evenly over the design sizes, and hits, edits, default maps and
// classifications all start from a design's latest version, a chain of
// localised edits of the initial one: those stay cached because hits keep
// refreshing them, which makes a request's cache outcome depend on the
// trace rather than on how the clients interleave, and keeps their cost
// the same for every seed. Cold designs are one-off; they and superseded
// versions age out of the cache, so evictions still happen.
func replayTrace(designs []design, seed int64, n int) []*request {
	// The class schedule is fixed; the seed drives only the edits, so every
	// seed does the same mix of work in the same order.
	schedule := rand.New(rand.NewSource(1))
	rng := rand.New(rand.NewSource(seed))
	cur := make([]*request, len(designs)) // latest slap map of each design
	var choicePool [3]*request
	seen := make([]map[uint64]bool, len(designs))
	out := make([]*request, 0, n)
	add := func(r *request) { out = append(out, r) }
	send := func(class string, i int, g *aig.AIG) *request {
		r := replayRequest(class, designs[i].name, g, encode(g))
		add(r)
		return r
	}
	for i, d := range designs {
		seen[i] = map[uint64]bool{d.g.StructuralHash(): true}
		cur[i] = send("initial", i, fresh(d.g, seen[i], mix(seed, int64(i)), perturbFraction(d.g)))
		cur[i].ref = true
	}
	next := map[string]int{}
	for len(out) < n {
		block := slices.Clone(replayBlock)
		schedule.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, class := range block {
			k := next[class]
			next[class]++
			i := k % len(designs)
			switch class {
			case "hit":
				r := *cur[i]
				r.ref = false
				add(&r)
			case "edit":
				cur[i] = send(class, i, circuits.PerturbSpan(cur[i].g, rng.Int63(), 0.9, 1, 0.5))
			case "cold":
				send(class, i, fresh(designs[i].g, seen[i], rng.Int63(), 0.3))
			case "choices":
				// The pool holds the first designs, so the three choice
				// builds cost the same in every run.
				j := k % min(len(choicePool), len(designs))
				if choicePool[j] == nil {
					choicePool[j] = send(class, j, fresh(designs[j].g, seen[j], rng.Int63(), perturbFraction(designs[j].g)))
				} else {
					add(choicePool[j])
				}
			default: // default, classify
				add(replayRequest(class, designs[i].name, cur[i].g, cur[i].body))
			}
		}
	}
	return out[:n]
}

// runReplay drives the trace from two closed-loop clients until the window
// closes or the trace runs out, and returns the samples in trace order.
func runReplay(ctx context.Context, c *client, trace []*request, window time.Duration) []sample {
	out := make([]sample, len(trace))
	var next atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(trace)) {
					return
				}
				out[i] = c.do(ctx, trace[i])
			}
		}()
	}
	wg.Wait()
	return out[:min(next.Load(), int64(len(trace)))]
}

// replayPerSecond bounds the pre-generated replay trace at this many
// requests per second of window, above any rate two clients reach.
const replayPerSecond = 100
