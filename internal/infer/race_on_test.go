//go:build race

package infer

// raceEnabled lets allocation-count assertions skip under -race: the race
// runtime bypasses sync.Pool caching, so AllocsPerRun is not meaningful.
const raceEnabled = true
