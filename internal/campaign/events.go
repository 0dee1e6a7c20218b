package campaign

import (
	"log/slog"

	"pooleddata/internal/wal"
)

// The campaign event log is the campaign's results in settle order plus
// one terminal event. Every job settlement appends one result, which is
// also the next gapless-sequence event: result event i is results[i-1].
// The campaign's terminal transition (all jobs settled, or expiry by GC)
// stores exactly one closing event that seals the log and freezes its
// length. The log is bounded by construction — at most Total+1 events —
// so it is the shared replay buffer for any number of streaming
// subscribers: a subscriber keeps only a cursor (the last sequence
// number it consumed), never a private queue, which is what makes
// slow-client handling an eviction decision at the transport instead of
// unbounded per-client buffering. Cursors are resumable: EventsSince(seq)
// replays everything after seq, which is exactly the SSE Last-Event-ID
// contract pooledd serves.

// Event types.
const (
	// EventResult is a per-job settlement; Event.Job carries the result.
	EventResult = "result"
	// EventDone is the single terminal event that ends every stream.
	EventDone = "done"
)

// Event is one entry in a campaign's monotone event log.
type Event struct {
	// Seq is the 1-based, gapless sequence number — the resume cursor
	// (and the SSE event id).
	Seq int64 `json:"seq"`
	// Type is EventResult or EventDone.
	Type string `json:"type"`
	// Job is the settled job (EventResult only): the campaign's own
	// result, never changed once settled, and shared across subscribers.
	Job *JobResult `json:"job,omitempty"`
	// Final counters (EventDone only).
	State     State `json:"state,omitempty"`
	Total     int   `json:"total,omitempty"`
	Completed int   `json:"completed,omitempty"`
	Failed    int   `json:"failed,omitempty"`
	Canceled  int   `json:"canceled,omitempty"`
}

// Terminal reports whether the event closes its stream.
func (ev Event) Terminal() bool { return ev.Type == EventDone }

// sealLocked seals the log with the terminal event and, for journaled
// campaigns, writes the WAL's terminal seal record — after this the
// on-disk log is complete and recovery restores the campaign read-only
// instead of re-dispatching anything. A job that settles after the seal
// (a straggler of an expired campaign) updates the counters and the
// results but is not announced to streams that already received their
// closing event.
func (cp *Campaign) sealLocked() {
	if cp.sealed {
		return
	}
	cp.done = Event{
		Seq: int64(len(cp.results)) + 1, Type: EventDone, State: cp.stateLocked(), Total: cp.total,
		Completed: cp.completed, Failed: cp.failed, Canceled: cp.canceledJobs,
	}
	cp.sealed = true
	if cp.jnl != nil {
		err := cp.jnl.Seal(cp.id, wal.Seal{
			State:     string(cp.done.State),
			Completed: cp.completed, Failed: cp.failed, Canceled: cp.canceledJobs,
		})
		if err != nil {
			slog.Warn("campaign: wal seal failed", "campaign", cp.id, "err", err)
		}
	}
}

// eventsLocked is the log's length: the sequence number of the newest
// event.
func (cp *Campaign) eventsLocked() int64 {
	if cp.sealed {
		return cp.done.Seq
	}
	return int64(len(cp.results))
}

// EventsSince returns the events with sequence numbers greater than seq
// (a copy safe to use without locks), the notification channel that
// closes on the next update, and whether the log is sealed — once
// sealed, the returned events are the last the cursor will ever see, so
// a streamer that has written them can close its stream. Cursors out of
// range are clamped: negative means "from the start", beyond the log
// means "nothing yet".
func (cp *Campaign) EventsSince(seq int64) (evs []Event, changed <-chan struct{}, sealed bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	n := cp.eventsLocked()
	streamed := n // result events in the log
	if cp.sealed {
		streamed--
	}
	seq = min(max(seq, 0), n)
	evs = make([]Event, 0, n-seq)
	// Seq is position+1, so the events after cursor seq start at result
	// seq. A result is never changed once appended, so a pointer to it is
	// safe to share.
	for i := seq; i < streamed; i++ {
		evs = append(evs, Event{Seq: i + 1, Type: EventResult, Job: &cp.results[i]})
	}
	if cp.sealed && seq < n {
		evs = append(evs, cp.done)
	}
	return evs, cp.changed, cp.sealed
}

// Events reports the current log length — the sequence number of the
// newest event.
func (cp *Campaign) Events() int64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.eventsLocked()
}
