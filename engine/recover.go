package engine

import (
	"errors"
	"time"
)

// RetryFetch runs fetch up to FetchAttempts times with doubling backoff
// from 2 ms — the shuffle-fetch retry discipline shared by the local
// runtime (FetchShuffleChunks) and the distributed executor's network
// fetches. A *MapOutputMissingError returns immediately: missing map
// output is not transient, lineage must repair it. Any other error is
// treated as transient; onRetry (may be nil) observes each retry before
// its backoff sleep. After FetchAttempts failures the last error is
// returned unwrapped so callers can add their own context.
func RetryFetch(onRetry func(attempt int, backoff time.Duration, last error), fetch func() error) error {
	backoff := fetchRetryBackoff
	var last error
	for attempt := 0; attempt < FetchAttempts; attempt++ {
		if attempt > 0 {
			if onRetry != nil {
				onRetry(attempt, backoff, last)
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		err := fetch()
		if err == nil {
			return nil
		}
		var miss *MapOutputMissingError
		if errors.As(err, &miss) {
			return err
		}
		last = err
	}
	return last
}
