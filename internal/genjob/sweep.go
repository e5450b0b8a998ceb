package genjob

import (
	"fmt"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/dataset"
	"slap/internal/library"
)

// Sweep bounds. A request's counts drive allocations before any mapping
// runs (the plan, a shard's outcome slab), so Resolve refuses a sweep
// above them. 65,536 maps per circuit is 52× the paper profile's 1,250 per
// training adder.
const (
	MaxMapsPerCircuit = 65536
	MaxCircuits       = 16
	MaxShards         = 4096
)

// Sweep is the JSON description of a dataset sweep that every sweep
// request embeds: POST /v1/jobs/dataset on slap-serve and on the fleet
// coordinator, and POST /v1/shards/execute.
type Sweep struct {
	// Circuits names built-in training designs (rc16, cla16); empty means
	// both, the paper's training set.
	Circuits []string `json:"circuits"`
	// MapsPerCircuit is the number of random-shuffle mappings per circuit.
	MapsPerCircuit int `json:"maps_per_circuit"`
	// Shards is the requested shard count (0 = one per circuit; see Plan).
	Shards int `json:"shards"`
	// Seed is the master seed; the merged dataset is byte-identical to a
	// single-process dataset.Generate with it.
	Seed int64 `json:"seed"`
	// Classes, ShuffleLimit, Metric (delay, area or adp) and
	// MaxMapFailures mirror dataset.Config.
	Classes        int    `json:"classes"`
	ShuffleLimit   int    `json:"shuffle_limit"`
	Metric         string `json:"metric"`
	MaxMapFailures int    `json:"max_map_failures"`
}

// Resolve checks the sweep against the bounds and resolves it into the
// normalized dataset.Config whose fingerprint both ends of a shard
// execution compare: the named builtins, the metric, lib, and one mapping
// at a time per shard (the shard pool is the parallelism).
func (s Sweep) Resolve(lib *library.Library) (dataset.Config, error) {
	switch {
	case s.MapsPerCircuit <= 0 || s.MapsPerCircuit > MaxMapsPerCircuit:
		return dataset.Config{}, fmt.Errorf("maps_per_circuit must be between 1 and %d", MaxMapsPerCircuit)
	case len(s.Circuits) > MaxCircuits:
		return dataset.Config{}, fmt.Errorf("a sweep names at most %d circuits", MaxCircuits)
	case s.Shards > MaxShards:
		return dataset.Config{}, fmt.Errorf("shards must be at most %d", MaxShards)
	}
	names := s.Circuits
	if len(names) == 0 {
		names = []string{"rc16", "cla16"}
	}
	graphs := make([]*aig.AIG, len(names))
	for i, n := range names {
		switch n {
		case "rc16":
			graphs[i] = circuits.TrainRC16()
		case "cla16":
			graphs[i] = circuits.TrainCLA16()
		default:
			return dataset.Config{}, fmt.Errorf("unknown circuit %q (want rc16 or cla16)", n)
		}
	}
	var metric dataset.Metric
	switch s.Metric {
	case "", "delay":
		metric = dataset.MetricDelay
	case "area":
		metric = dataset.MetricArea
	case "adp":
		metric = dataset.MetricADP
	default:
		return dataset.Config{}, fmt.Errorf("unknown metric %q (want delay, area or adp)", s.Metric)
	}
	return dataset.Config{
		Circuits:       graphs,
		Library:        lib,
		MapsPerCircuit: s.MapsPerCircuit,
		Classes:        s.Classes,
		Seed:           s.Seed,
		ShuffleLimit:   s.ShuffleLimit,
		Metric:         metric,
		MaxFailures:    s.MaxMapFailures,
		Workers:        1,
	}.Normalize()
}
