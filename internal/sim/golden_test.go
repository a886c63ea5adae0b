package sim

import (
	"math"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/index"
)

// TestRunGolden pins the metrics of one seeded run at the small test
// scale to values recorded from an earlier build. TestRunDeterministic
// only compares two runs of the same binary; this test catches output
// drift between commits, such as a change to the contact-node draw
// (DHTHopsPerInteraction) or to the search and cache policies. Update the
// expected values only for a change that is meant to alter the
// simulation's output.
func TestRunGolden(t *testing.T) {
	opts := smallOpts(index.Simple, cache.LRU, 30)
	m := run(t, opts)

	floats := []struct {
		name      string
		got, want float64
	}{
		{"InteractionsPerQuery", m.InteractionsPerQuery, 2.417333333333333},
		{"HitRatio", m.HitRatio, 0.6116666666666667},
		{"FirstNodeHitShare", m.FirstNodeHitShare, 0.9220708446866485},
		{"NormalTrafficPerQuery", m.NormalTrafficPerQuery, 966.0816666666667},
		{"CacheTrafficPerQuery", m.CacheTrafficPerQuery, 56.11266666666667},
		{"TrafficPerQuery", m.TrafficPerQuery, 1022.1943333333334},
		{"ExtraInteractionsForErrors", m.ExtraInteractionsForErrors, 1},
		{"DHTHopsPerInteraction", m.DHTHopsPerInteraction, 3.61003861003861},
	}
	for _, f := range floats {
		// The relative tolerance only absorbs floating-point rounding
		// differences between architectures; one query resolved
		// differently moves a mean over 3,000 queries by ~1e-4.
		if math.Abs(f.got-f.want) > 1e-9*math.Max(1, math.Abs(f.want)) {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if m.Queries != 3000 {
		t.Errorf("Queries = %d, want 3000", m.Queries)
	}
	if m.NonIndexedQueries != 114 {
		t.Errorf("NonIndexedQueries = %d, want 114", m.NonIndexedQueries)
	}
}
