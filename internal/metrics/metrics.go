// Package metrics provides the small measurement toolkit the
// experiment harness uses: aligned-text tables (every experiment
// prints one), mergeable streaming statistics (stats.go), and a
// deterministic seedable RNG so workloads are reproducible without
// math/rand's global state.
package metrics

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-text footnote.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Rows returns the formatted rows (for tests).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Render produces the aligned text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RNG is a SplitMix64 deterministic generator: tiny, seedable, and
// free of global state, so parallel workloads stay reproducible.
type RNG struct {
	state uint64
}

// splitmixGamma is SplitMix64's golden-ratio increment; the state
// walks this arithmetic progression and every output is a bijective
// finalizer of a state point, which is what makes random-access
// stream derivation (StreamSeed) possible.
const splitmixGamma = 0x9e3779b97f4a7c15

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Reseed rewinds the generator to the given seed in place, so hot
// paths (the fleet trial loop) can reuse one RNG value per worker
// instead of allocating a fresh generator per trial. After
// r.Reseed(s), r's draw sequence is exactly NewRNG(s)'s.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// Uint64 returns the next value.
func (r *RNG) Uint64() uint64 {
	r.state += splitmixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Split derives an independent child generator (for per-worker
// streams).
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// StreamSeed is Split generalized to random access: StreamSeed(s, i)
// equals the seed that NewRNG(s)'s (i+1)-th sequential Split would
// use (its i-th Uint64 draw, 0-indexed) — without drawing the i
// predecessors. Sharded executors use it to key trial i's stream by
// index, so every trial's randomness is independent of worker count,
// scheduling order, and which shard ran it.
func StreamSeed(seed, i uint64) uint64 {
	r := RNG{state: seed + i*splitmixGamma}
	return r.Uint64()
}
