package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Recorder is one shard's job accounting: the outcome counters, the
// stage histograms and the hot-key load table behind Stats. A job is
// recorded once, by the settle function that completes its Future, from
// the Result it settles with, whether a local worker decoded it or a
// remote worker reported it back. Safe for concurrent use.
type Recorder struct {
	submitted, completed, failed, canceled atomic.Uint64
	rejected, consistent, measured         atomic.Uint64
	queueWaitNS, decodeNS                  atomic.Int64

	decode, queue, settle   histogramSet // keyed by decoder name
	noiseDecode, noiseQueue histogramSet // keyed by noise-model key
	load                    *loadTable
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{load: newLoadTable(defaultLoadKeys)}
	// Noise-model keys embed caller-supplied parameters (σ, T); bound the
	// per-model breakdowns so a sigma sweep cannot grow them without
	// limit.
	r.noiseDecode.limit = 64
	r.noiseQueue.limit = 64
	return r
}

// Submitted counts one job accepted into a shard's queue.
func (r *Recorder) Submitted() { r.submitted.Add(1) }

// Rejected counts n jobs refused by admission control.
func (r *Recorder) Rejected(n int) { r.rejected.Add(uint64(n)) }

// Measured counts n signals evaluated through MeasureBatch.
func (r *Recorder) Measured(n int) { r.measured.Add(uint64(n)) }

// record accounts one settled job. A result that names a decoder reached
// it: its queue wait and decode time enter the histograms and the load
// table, and it counts as completed or failed by err. A failed result
// without a decoder never reached one: it counts as canceled when err is
// a context error and as failed otherwise.
func (r *Recorder) record(job Job, res Result, err error) {
	if err != nil && res.Decoder == "" {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			r.canceled.Add(1)
		} else {
			r.failed.Add(1)
		}
		return
	}
	st, nm := res.Stats, job.Noise.Canon().Key()
	r.queue.get(res.Decoder).observe(st.QueueWait)
	r.noiseQueue.get(nm).observe(st.QueueWait)
	r.decode.get(res.Decoder).observe(st.DecodeTime)
	r.noiseDecode.get(nm).observe(st.DecodeTime)
	r.load.record(job.Scheme.RouteKey(), st.DecodeTime.Nanoseconds(), time.Now())
	if err != nil {
		r.failed.Add(1)
		return
	}
	r.completed.Add(1)
	if st.Consistent {
		r.consistent.Add(1)
	}
	r.queueWaitNS.Add(int64(st.QueueWait))
	r.decodeNS.Add(int64(st.DecodeTime))
}

// settled times one job's settle, future completion plus OnDone, under
// its decoder; a job that never reached a decoder is not timed.
func (r *Recorder) settled(res Result, d time.Duration) {
	if res.Decoder != "" {
		r.settle.get(res.Decoder).observe(d)
	}
}

// Snapshot returns the recorded counters, histograms and load table.
// The scheme-cache counters are the Cache's to add (Cache.AddCounters).
func (r *Recorder) Snapshot() Stats {
	st := Stats{
		JobsSubmitted:     r.submitted.Load(),
		JobsCompleted:     r.completed.Load(),
		JobsFailed:        r.failed.Load(),
		JobsCanceled:      r.canceled.Load(),
		JobsRejected:      r.rejected.Load(),
		Consistent:        r.consistent.Load(),
		SignalsMeasured:   r.measured.Load(),
		TotalQueueWait:    time.Duration(r.queueWaitNS.Load()),
		TotalDecodeTime:   time.Duration(r.decodeNS.Load()),
		DecodeLatency:     r.decode.snapshot(),
		QueueLatency:      r.queue.snapshot(),
		SettleLatency:     r.settle.snapshot(),
		NoiseQueueLatency: r.noiseQueue.snapshot(),
		NoiseLatency:      r.noiseDecode.snapshot(),
		SchemeLoad:        r.load.snapshot(time.Now()),
	}
	if len(st.NoiseLatency) > 0 {
		st.JobsByNoise = make(map[string]uint64, len(st.NoiseLatency))
		for key, h := range st.NoiseLatency {
			st.JobsByNoise[key] = h.Count
		}
	}
	return st
}
