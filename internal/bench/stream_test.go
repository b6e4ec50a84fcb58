package bench

import (
	"testing"
)

// streamParams sizes the streaming workload so each node's range spans
// 32 remote chunks — enough in-flight work for the pipeline to matter,
// small enough for CI.
func streamParams() Params {
	p := tinyParams()
	p.WordsPerNode = 1 << 14
	p.MaxNodes = 3
	return p
}

// TestStreamPipelineSpeedup is the acceptance gate for the transfer
// pipeline: cross-node GetRange at the default ceilings (pipeline,
// doorbell batching and with it coalescing, prefetch) must run at least
// 2x faster in virtual time than the all-off baseline, a window of one.
func TestStreamPipelineSpeedup(t *testing.T) {
	p := streamParams()
	base := runStream(p, 2, baselineStream(false))
	full := runStream(p, 2, streamConfig{})
	if base.words != full.words || base.words == 0 {
		t.Fatalf("word counts differ: base=%d full=%d", base.words, full.words)
	}
	speed := base.nsPerOp() / full.nsPerOp()
	t.Logf("GetRange: serial %.1f ns/word, pipelined %.1f ns/word, speedup %.2fx (virtual)",
		base.nsPerOp(), full.nsPerOp(), speed)
	if speed < 2 {
		t.Errorf("pipelined GetRange speedup %.2fx, want >= 2x", speed)
	}
}

// TestStreamWriteSpeedup checks the pipeline also helps the exclusive
// (SetRange) path, where every chunk needs an ownership transfer.
func TestStreamWriteSpeedup(t *testing.T) {
	p := streamParams()
	base := runStream(p, 2, baselineStream(true))
	full := runStream(p, 2, streamConfig{write: true})
	speed := base.nsPerOp() / full.nsPerOp()
	t.Logf("SetRange: serial %.1f ns/word, pipelined %.1f ns/word, speedup %.2fx (virtual)",
		base.nsPerOp(), full.nsPerOp(), speed)
	if speed < 1.5 {
		t.Errorf("pipelined SetRange speedup %.2fx, want >= 1.5x", speed)
	}
}
