package hare

import (
	"hare/internal/stream"
)

// StreamCounter is an exact online motif counter: feed it edges in
// non-decreasing time order — one at a time with Add, or fanned out over
// worker goroutines with AddBatch / Feed — and read cumulative counts at
// any point. Sliding-mode counters additionally retire instances as their
// edges expire, so WindowMatrix reports exactly the last δ window. It is
// the incremental counterpart of Count for live systems (see
// examples/streamwatch).
type StreamCounter = stream.Counter

// StreamMode selects cumulative-only or sliding-window stream counting.
type StreamMode = stream.Mode

// Stream counting modes.
const (
	// StreamCumulative counts every instance completed since the stream
	// began (the cheapest mode).
	StreamCumulative = stream.Cumulative
	// StreamSliding additionally retires instances as their first edge
	// leaves the δ window, enabling WindowMatrix.
	StreamSliding = stream.Sliding
)

// StreamOptions configures NewStreamCounter: window δ, mode, and the
// worker fan-out of the batched ingest path.
type StreamOptions = stream.Options

// StreamFeedOptions configures StreamCounter.Feed (batch size and the
// per-batch snapshot hook).
type StreamFeedOptions = stream.FeedOptions

// StreamFeedBatch is Feed's default batch size.
const StreamFeedBatch = stream.DefaultFeedBatch

// StreamMinParallelBatch is the batch size below which AddBatch ingests
// sequentially (fan-out overhead would outweigh the parallel scans).
const StreamMinParallelBatch = stream.MinParallelBatch

// NewStream returns an empty cumulative online counter with window δ.
func NewStream(delta Timestamp) (*StreamCounter, error) { return stream.New(delta) }

// NewSlidingStream returns an empty sliding-window online counter with
// window δ: WindowMatrix reports the instances lying entirely in the last δ.
func NewSlidingStream(delta Timestamp) (*StreamCounter, error) { return stream.NewSliding(delta) }

// NewStreamCounter returns an empty online counter with the given options.
func NewStreamCounter(opts StreamOptions) (*StreamCounter, error) { return stream.NewCounter(opts) }
