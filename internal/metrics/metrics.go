// Package metrics is a small registry of counters, gauges and histograms,
// each optionally labelled, plus families whose values a callback reads at
// scrape time. The registry renders the Prometheus text exposition format
// and serves it as an http.Handler.
//
// Observing a series does not allocate and takes no registry-wide lock:
// counters and gauges update atomically, and a histogram takes its own
// short lock. A labelled series is resolved with Vec.With, which locks its
// family; hot paths resolve once and keep the pointer.
package metrics

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// family is one metric name with its series, or with the callback that
// reports them at scrape time.
type family struct {
	name, help, typ string
	labels          []string
	bounds          []float64 // histogram upper bounds

	mu     sync.Mutex
	series map[string]*series // keyed by the label values joined with 0xff

	collect func(emit func(v float64, values ...string))
}

// series is one set of label values and its *Counter, *Gauge or
// *Histogram (a float64 for callback families).
type series struct {
	values []string
	metric any
}

func (r *Registry) register(f *family) *family {
	f.series = make(map[string]*series)
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) Vec[Counter] {
	return Vec[Counter]{r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return Vec[Gauge]{r.register(&family{name: name, help: help, typ: "gauge"})}.With()
}

// Histogram registers an unlabelled histogram with the given ascending
// bucket upper bounds; +Inf is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// HistogramVec registers a histogram family with the given ascending
// bucket upper bounds and label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) Vec[Histogram] {
	return Vec[Histogram]{r.register(&family{name: name, help: help, typ: "histogram", labels: labels, bounds: bounds})}
}

// CounterFunc registers an unlabelled counter whose value f reads at
// scrape time.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", collect: func(emit func(float64, ...string)) { emit(f()) }})
}

// GaugeFunc registers an unlabelled gauge whose value f reads at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.GaugeVecFunc(name, help, nil, func(emit func(float64, ...string)) { emit(f()) })
}

// GaugeVecFunc registers a labelled gauge family whose series collect
// reports at scrape time, calling emit once per series with its value and
// label values.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func(emit func(v float64, values ...string))) {
	r.register(&family{name: name, help: help, typ: "gauge", labels: labels, collect: collect})
}

// Vec is a labelled family of series of one kind.
type Vec[T Counter | Gauge | Histogram] struct{ f *family }

// With returns the series for the given label values, in declaration
// order, creating it at zero on first use.
func (v Vec[T]) With(values ...string) *T { return v.f.with(values).(*T) }

func (f *family) with(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{values: slices.Clone(values)}
		switch f.typ {
		case "counter":
			s.metric = new(Counter)
		case "gauge":
			s.metric = new(Gauge)
		default:
			s.metric = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
		}
		f.series[key] = s
	}
	return s.metric
}

// Counter is a value that only goes up.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds d, which must not be negative.
func (c *Counter) Add(d float64) { c.v.add(d) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a sampled value kept by the registry, such as a high-water
// mark. A value that lives elsewhere is registered with GaugeFunc instead.
type Gauge struct{ v atomicFloat }

// SetMax raises the value to v when v is larger: a high-water mark.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.v.bits.Load()
		if math.Float64frombits(old) >= v || g.v.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram counts observations into buckets with fixed upper bounds.
// Observe takes a short lock rather than making two atomic updates: with
// two cores observing side by side, as mapping workers do once per
// inference pass, the atomic pair (a bucket add and a compare-and-swap
// loop on the sum) measured several times slower. A scrape also reads the
// counts and the sum from one instant.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // per bucket, not cumulative; the last is +Inf
	sum    float64
}

// Observe records v in the first bucket whose upper bound is at least v,
// so a value equal to a bound lands in that bound's bucket and a value
// below the first bound in the first bucket.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// snapshot returns the bucket counts and the sum.
func (h *Histogram) snapshot() ([]uint64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.counts), h.sum
}

// atomicFloat is a float64 updated by compare-and-swap.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(d float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

// ServeHTTP renders every family as text exposition format 0.0.4.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	r.render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(b.Bytes()) // a failed write means the scraper hung up
}

// render writes families in registration order and the series of each
// family sorted by label values. Callbacks run without the registry lock.
func (r *Registry) render(b *bytes.Buffer) {
	r.mu.Lock()
	families := slices.Clone(r.families)
	r.mu.Unlock()
	for _, f := range families {
		f.render(b)
	}
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func (f *family) render(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
	var rows []*series
	if f.collect != nil {
		f.collect(func(v float64, values ...string) {
			rows = append(rows, &series{values: slices.Clone(values), metric: v})
		})
	} else {
		f.mu.Lock()
		for _, s := range f.series {
			rows = append(rows, s)
		}
		f.mu.Unlock()
	}
	slices.SortFunc(rows, func(x, y *series) int { return slices.Compare(x.values, y.values) })
	for _, s := range rows {
		var pairs []string
		for i, l := range f.labels {
			pairs = append(pairs, l+`="`+labelEscaper.Replace(s.values[i])+`"`)
		}
		switch m := s.metric.(type) {
		case float64:
			writeSample(b, f.name, pairs, m)
		case interface{ Value() float64 }:
			writeSample(b, f.name, pairs, m.Value())
		case *Histogram:
			counts, sum := m.snapshot()
			var cum uint64
			for i, n := range counts {
				cum += n
				le := "+Inf"
				if i < len(m.bounds) {
					le = formatValue(m.bounds[i])
				}
				writeSample(b, f.name+"_bucket", append(pairs, `le="`+le+`"`), float64(cum))
			}
			writeSample(b, f.name+"_sum", pairs, sum)
			writeSample(b, f.name+"_count", pairs, float64(cum))
		}
	}
}

func writeSample(b *bytes.Buffer, name string, pairs []string, v float64) {
	b.WriteString(name)
	if len(pairs) > 0 {
		b.WriteString("{" + strings.Join(pairs, ",") + "}")
	}
	b.WriteString(" " + formatValue(v) + "\n")
}

// formatValue prints integral values below 2^53 as plain integers and
// every other value in the shortest form that parses back exactly.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
