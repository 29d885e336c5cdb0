package campaign

import (
	"testing"

	"github.com/netmeasure/topicscope/internal/crawler"
)

// TestRetriesRoundTrip pins the one -retries rule and its inverse, the
// value the ExecLauncher hands each topics-crawl worker.
func TestRetriesRoundTrip(t *testing.T) {
	for _, tc := range []struct{ retries, attempts int }{
		{-1, 1}, {0, 1}, {1, 2}, {2, 3}, {5, 6},
	} {
		if got := Attempts(tc.retries); got != tc.attempts {
			t.Errorf("Attempts(%d) = %d, want %d", tc.retries, got, tc.attempts)
		}
		if tc.retries < 0 {
			continue
		}
		if got := (Spec{Attempts: tc.attempts}).Retries(); got != tc.retries {
			t.Errorf("Spec{Attempts: %d}.Retries() = %d, want %d", tc.attempts, got, tc.retries)
		}
	}
	if got := (Spec{}).Retries(); Attempts(got) != crawler.DefaultAttempts {
		t.Errorf("the default budget round-trips to %d attempts, want %d", Attempts(got), crawler.DefaultAttempts)
	}
}
