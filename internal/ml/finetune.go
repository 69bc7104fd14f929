package ml

import (
	"context"
	"errors"

	"mimicnet/internal/stats"
)

// errFineTuneCheckpoint rejects checkpoint options on the fine-tune path.
var errFineTuneCheckpoint = errors.New("ml: checkpointing is only supported for TrainContext, not fine-tuning")

// FineTune continues training an already-fitted model on new samples —
// the incremental model update MimicNet's future work calls for (paper
// §11, Appendix H: "techniques that can minimize the overhead of model
// retraining"). A fresh Adam state is used with a (typically lower)
// learning rate; existing weights are the starting point, so far fewer
// epochs are needed than training from scratch.
func (m *Model) FineTune(samples []Sample, epochs int, lr float64) TrainResult {
	res, _ := m.FineTuneContext(context.Background(), samples, epochs, lr, TrainOpts{})
	return res
}

// FineTuneContext is FineTune with cancellation and progress reporting,
// sharing the trainer with TrainContext (ragged or empty windows are an
// error here too).
func (m *Model) FineTuneContext(ctx context.Context, samples []Sample, epochs int, lr float64, opts TrainOpts) (TrainResult, error) {
	return m.FineTuneSourceContext(ctx, samplesOf(samples), epochs, lr, opts)
}

// FineTuneSource is FineTune over a SampleSource (columnar views
// fine-tune without materializing []Sample).
func (m *Model) FineTuneSource(src SampleSource, epochs int, lr float64) TrainResult {
	res, _ := m.FineTuneSourceContext(context.Background(), src, epochs, lr, TrainOpts{})
	return res
}

// FineTuneSourceContext is FineTuneContext over a SampleSource.
func (m *Model) FineTuneSourceContext(ctx context.Context, src SampleSource, epochs int, lr float64, opts TrainOpts) (TrainResult, error) {
	if opts.ResumeFrom != nil || opts.SaveCheckpoint != nil {
		// Checkpoint cursors are scoped to TrainContext: they embed the
		// model's own config (epochs, LR, seed), which fine-tuning
		// overrides, so a resume here would silently diverge.
		return TrainResult{Samples: src.Len()}, errFineTuneCheckpoint
	}
	if epochs < 1 {
		epochs = 1
	}
	if lr <= 0 {
		lr = m.Cfg.LR / 3
	}
	rng := stats.NewStream(m.Cfg.Seed + 7)
	return m.fit(ctx, lr, rng, src, epochs, opts)
}
