package metrics

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func rendered(r *Registry) string {
	var b bytes.Buffer
	r.render(&b)
	return b.String()
}

// TestExposition pins the rendered text: families in registration order,
// series sorted by label values, cumulative histogram buckets ending at
// +Inf, escaped HELP text and label values, and callback families.
func TestExposition(t *testing.T) {
	r := New()
	req := r.CounterVec("req_total", "Requests by path and code.", "path", "code")
	req.With("/b", "200").Add(3)
	req.With("/a", "500").Inc()
	req.With("/a", "200").Inc()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.0025, 1, 60})
	h.Observe(0.001)
	h.Observe(0.5)
	h.Observe(100)
	r.GaugeFunc("up", "Line one\nback\\slash.", func() float64 { return 0.1 })
	r.GaugeVecFunc("w", "Per worker.", []string{"worker"}, func(emit func(float64, ...string)) {
		emit(2, "z")
		emit(1, "a\"b\\c\nd\te\x01")
	})
	r.CounterFunc("c_total", "Callback counter.", func() float64 { return 1 << 40 })
	r.HistogramVec("phase_seconds", "Per phase.", []float64{1}, "phase").With("x").Observe(2)

	want := `# HELP req_total Requests by path and code.
# TYPE req_total counter
req_total{path="/a",code="200"} 1
req_total{path="/a",code="500"} 1
req_total{path="/b",code="200"} 3
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.0025"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="60"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 100.501
lat_seconds_count 3
# HELP up Line one\nback\\slash.
# TYPE up gauge
up 0.1
# HELP w Per worker.
# TYPE w gauge
w{worker="a\"b\\c\nd` + "\te\x01" + `"} 1
w{worker="z"} 2
# HELP c_total Callback counter.
# TYPE c_total counter
c_total 1099511627776
# HELP phase_seconds Per phase.
# TYPE phase_seconds histogram
phase_seconds_bucket{phase="x",le="1"} 0
phase_seconds_bucket{phase="x",le="+Inf"} 1
phase_seconds_sum{phase="x"} 2
phase_seconds_count{phase="x"} 1
`
	if got := rendered(r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type %q", ct)
	}
	if rec.Body.String() != want {
		t.Errorf("ServeHTTP body differs from the rendered exposition")
	}
}

// TestEmptyFamilies renders HELP and TYPE for families with no series yet.
func TestEmptyFamilies(t *testing.T) {
	r := New()
	r.CounterVec("hits_total", "Hits.", "arm")
	if got, want := rendered(r), "# HELP hits_total Hits.\n# TYPE hits_total counter\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestBucketEdges(t *testing.T) {
	r := New()
	h := r.Histogram("gain", "Gain.", []float64{0, 0.1, 0.5})
	h.Observe(0.1)  // equal to a bound: that bound's bucket
	h.Observe(0.75) // above the last bound: +Inf only
	h.Observe(-0.2) // negative: the first bucket
	for i, want := range []uint64{1, 1, 0, 1} {
		if got := h.counts[i]; got != want {
			t.Errorf("bucket %d holds %d, want %d", i, got, want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{1 << 40, "1099511627776"},
		{0.1, "0.1"},
		{0.0025, "0.0025"},
		{60, "60"},
		{0, "0"},
		{-3, "-3"},
		{1 << 53, "9.007199254740992e+15"},
		{math.Inf(1), "+Inf"},
		{math.NaN(), "NaN"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestObserveDoesNotAllocate covers unlabelled series and labelled series
// resolved once.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := New()
	c := r.Counter("c", "C.")
	g := r.Gauge("g", "G.")
	h := r.Histogram("h", "H.", []float64{1, 2, 4})
	lc := r.CounterVec("lc", "LC.", "k").With("v")
	lh := r.HistogramVec("lh", "LH.", []float64{1}, "k").With("v")
	for name, f := range map[string]func(){
		"Counter.Inc":          c.Inc,
		"Counter.Add":          func() { c.Add(2) },
		"Gauge.SetMax":         func() { g.SetMax(3) },
		"Histogram.Observe":    func() { h.Observe(3) },
		"labelled Counter.Inc": lc.Inc,
		"labelled Observe":     func() { lh.Observe(0.5) },
	} {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

// TestConcurrentObserve checks that concurrent observers lose nothing
// while scrapes run beside them; run it under -race.
func TestConcurrentObserve(t *testing.T) {
	const workers, per = 8, 10000
	r := New()
	c := r.Counter("c", "C.")
	g := r.Gauge("g", "G.")
	h := r.Histogram("h", "H.", []float64{1, 2})
	vec := r.CounterVec("v", "V.", "w")
	stop, scraperDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				rendered(r)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lc := vec.With(strings.Repeat("x", w%2+1))
			for i := 0; i < per; i++ {
				c.Inc()
				lc.Inc()
				g.SetMax(float64(w*per + i))
				h.Observe(float64(i%3) + 0.5) // 0.5, 1.5, 2.5: one per bucket
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %v, want %d", got, workers*per)
	}
	if a, b := vec.With("x").Value(), vec.With("xx").Value(); a != workers/2*per || b != workers/2*per {
		t.Errorf("labelled counters = %v, %v, want %d each", a, b, workers/2*per)
	}
	if got := g.Value(); got != workers*per-1 {
		t.Errorf("high-water mark = %v, want %d", got, workers*per-1)
	}
	var total uint64
	for _, n := range h.counts {
		total += n
	}
	perBucket := uint64(workers * ((per + 2) / 3))
	if got := h.counts[0]; got != perBucket || total != workers*per {
		t.Errorf("first bucket %d of %d observations, want %d of %d", got, total, perBucket, workers*per)
	}
	// Every partial sum is a multiple of 0.5 below 2^53, so the total is exact.
	if got, want := h.sum, float64(workers)*(per/3*4.5+0.5); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}
