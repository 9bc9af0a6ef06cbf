package metrics

import (
	"encoding/json"
	"math"
	"testing"
)

func TestAccMergeMatchesSequential(t *testing.T) {
	rng := NewRNG(7)
	var all Acc
	parts := make([]Acc, 5)
	for i := 0; i < 1213; i++ {
		v := rng.Float64()*10 - 3
		all.Add(v)
		parts[i%len(parts)].Add(v)
	}
	var merged Acc
	merged.Merge(Acc{}) // empty is a no-op
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count != all.Count || merged.Min != all.Min || merged.Max != all.Max {
		t.Fatalf("count/min/max: merged %+v vs sequential %+v", merged, all)
	}
	if math.Abs(merged.Mean-all.Mean) > 1e-12 {
		t.Errorf("mean: merged %v vs sequential %v", merged.Mean, all.Mean)
	}
	if math.Abs(merged.Variance()-all.Variance()) > 1e-9 {
		t.Errorf("variance: merged %v vs sequential %v", merged.Variance(), all.Variance())
	}
}

func TestAccSmall(t *testing.T) {
	var a Acc
	if a.Variance() != 0 || a.Std() != 0 {
		t.Errorf("empty acc variance nonzero")
	}
	a.Add(5)
	if a.Variance() != 0 {
		t.Errorf("single-sample variance = %v", a.Variance())
	}
	a.Add(7)
	if a.Mean != 6 || a.Variance() != 2 || a.Min != 5 || a.Max != 7 {
		t.Errorf("acc over {5,7} = %+v (var %v)", a, a.Variance())
	}
	// Merging into an empty Acc adopts the other side verbatim.
	var b Acc
	b.Merge(a)
	if b != a {
		t.Errorf("empty.Merge(a) = %+v, want %+v", b, a)
	}
}

func TestHistogramMergeMatchesCombined(t *testing.T) {
	rng := NewRNG(13)
	one := NewHistogram(0, 100, 10)
	parts := []*Histogram{NewHistogram(0, 100, 10), NewHistogram(0, 100, 10), NewHistogram(0, 100, 10)}
	for i := 0; i < 2000; i++ {
		v := rng.Float64()*120 - 10 // deliberately spills both ends
		one.Add(v)
		parts[i%len(parts)].Add(v)
	}
	merged := NewHistogram(0, 100, 10)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := merged.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if merged.N() != one.N() || merged.Under != one.Under || merged.Over != one.Over {
		t.Fatalf("totals: merged N=%d u=%d o=%d vs one N=%d u=%d o=%d",
			merged.N(), merged.Under, merged.Over, one.N(), one.Under, one.Over)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != one.Counts[i] {
			t.Errorf("bucket %d: merged %d vs one %d", i, merged.Counts[i], one.Counts[i])
		}
	}
	for q := 0.0; q <= 1.0; q += 0.25 {
		if got, want := merged.Quantile(q), one.Quantile(q); got != want {
			t.Errorf("quantile(%v): merged %v vs one %v", q, got, want)
		}
	}
}

func TestHistogramLayoutGuards(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if err := h.Merge(NewHistogram(0, 20, 5)); err == nil {
		t.Errorf("layout mismatch merge accepted")
	}
	if err := h.Merge(NewHistogram(0, 10, 4)); err == nil {
		t.Errorf("bucket-count mismatch merge accepted")
	}
	h.Add(10) // hi edge lands in the last bucket, not overflow
	if h.Over != 0 || h.Counts[4] != 1 {
		t.Errorf("hi edge: over=%d counts=%v", h.Over, h.Counts)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("degenerate layout did not panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %v", h.Quantile(0.5))
	}
	h.Add(-1)
	if h.Quantile(0.5) != h.Lo {
		t.Errorf("underflow-only quantile = %v, want Lo", h.Quantile(0.5))
	}
	for _, v := range []float64{0.5, 3.5, 9.5} {
		h.Add(v)
	}
	// 3 in-range samples: p50 is the 2nd -> bucket [3,4) upper edge.
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("p50 = %v, want 4", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
}

// The aggregates cross process boundaries (checkpoint sidecars) as
// JSON, so serialization must be lossless down to the last float bit:
// merging a decode(encode(shard)) must equal merging the shard
// itself, statistic for statistic. Go's encoding/json guarantees this
// by emitting the shortest decimal that round-trips each float64.
func TestAccJSONRoundTripMerge(t *testing.T) {
	rng := NewRNG(17)
	fill := func(n int) Acc {
		var a Acc
		for i := 0; i < n; i++ {
			a.Add(rng.Float64()*1e6 - 3e5)
		}
		return a
	}
	for _, n := range []int{0, 1, 2, 537} { // empty and single-sample are the degenerate layouts
		shard := fill(n)
		data, err := json.Marshal(shard)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Acc
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		if decoded != shard {
			t.Fatalf("n=%d: decode(encode(acc)) = %+v, want %+v", n, decoded, shard)
		}
		direct := fill(91)
		viaJSON := direct // Acc is a value: copies are independent
		direct.Merge(shard)
		viaJSON.Merge(decoded)
		if direct != viaJSON {
			t.Fatalf("n=%d: merge of decoded shard %+v differs from in-memory merge %+v", n, viaJSON, direct)
		}
	}
}

func TestHistogramJSONRoundTripMerge(t *testing.T) {
	rng := NewRNG(19)
	fill := func(n int) *Histogram {
		h := NewHistogram(0, 50, 8)
		for i := 0; i < n; i++ {
			h.Add(rng.Float64()*70 - 10) // spills both ends
		}
		return h
	}
	for _, n := range []int{0, 1, 400} {
		shard := fill(n)
		data, err := json.Marshal(shard)
		if err != nil {
			t.Fatal(err)
		}
		decoded := &Histogram{}
		if err := json.Unmarshal(data, decoded); err != nil {
			t.Fatal(err)
		}
		direct, viaJSON := fill(33), fill(0)
		if err := viaJSON.Merge(direct); err != nil { // same fill(33) content via a second pass
			t.Fatal(err)
		}
		if err := direct.Merge(shard); err != nil {
			t.Fatal(err)
		}
		if err := viaJSON.Merge(decoded); err != nil {
			t.Fatal(err)
		}
		if direct.Under != viaJSON.Under || direct.Over != viaJSON.Over || direct.Lo != viaJSON.Lo || direct.Hi != viaJSON.Hi {
			t.Fatalf("n=%d: merged edges differ: %+v vs %+v", n, viaJSON, direct)
		}
		for i := range direct.Counts {
			if direct.Counts[i] != viaJSON.Counts[i] {
				t.Fatalf("n=%d bucket %d: merged %d via JSON, %d in memory", n, i, viaJSON.Counts[i], direct.Counts[i])
			}
		}
	}
	// An empty decoded histogram (zero-bucket layout) must still fail
	// layout-checked merges loudly rather than silently dropping counts.
	var empty Histogram
	if err := fill(1).Merge(&empty); err == nil {
		t.Error("merge with a layoutless histogram accepted")
	}
}

// StreamSeed must be random access into exactly the stream Split
// walks sequentially.
func TestStreamSeedMatchesSequentialSplit(t *testing.T) {
	const seed = 12345
	seq := NewRNG(seed)
	for i := uint64(0); i < 50; i++ {
		want := seq.Uint64() // i-th draw == seed of the (i+1)-th sequential Split
		if got := StreamSeed(seed, i); got != want {
			t.Fatalf("StreamSeed(%d, %d) = %#x, want %#x", seed, i, got, want)
		}
	}
}

// Split streams must not correlate or collide: across 8 children x
// 1e5 draws every value is distinct (SplitMix64 is a bijection per
// stream; cross-stream collisions at this volume would mean the
// streams overlap), and each stream's Float64 mean sits near 1/2.
func TestRNGSplitStreamIndependence(t *testing.T) {
	const (
		streams = 8
		draws   = 100000
	)
	parent := NewRNG(2024)
	seen := make(map[uint64]struct{}, streams*draws)
	for s := 0; s < streams; s++ {
		child := parent.Split()
		var sum float64
		for i := 0; i < draws; i++ {
			v := child.Uint64()
			if _, dup := seen[v]; dup {
				t.Fatalf("stream %d draw %d: value %#x already produced by another stream", s, i, v)
			}
			seen[v] = struct{}{}
			sum += float64(v>>11) / float64(1<<53)
		}
		if mean := sum / draws; mean < 0.49 || mean > 0.51 {
			t.Errorf("stream %d mean %v outside [0.49, 0.51]", s, mean)
		}
	}
	// Pairwise lag-0 correlation proxy: identical prefixes would have
	// been caught by the collision set; additionally the XOR of first
	// draws across streams must not vanish.
	first := make([]uint64, streams)
	p2 := NewRNG(2024)
	for s := range first {
		first[s] = p2.Split().Uint64()
	}
	for i := 0; i < streams; i++ {
		for j := i + 1; j < streams; j++ {
			if first[i] == first[j] {
				t.Errorf("streams %d and %d share their first draw", i, j)
			}
		}
	}
}
