package csnake

import (
	"context"
	"errors"
	"testing"
)

// TestAnytimeCancellationMidWave is the regression test for campaign
// teardown: a cancellation that lands mid-wave (here: during the second
// experiment of the first wave) must surface as context.Canceled -- not
// as a nil error with a partial report -- and must not fire
// CampaignFinished, whose contract is "the campaign ran to completion".
func TestAnytimeCancellationMidWave(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &eventRecorder{onExperiment: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	rep, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithAnytime(), WithWaveSize(3),
			WithContext(ctx), WithObserver(rec))...).Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled campaign returned no partial report")
	}
	for _, e := range rec.snapshot() {
		if e == "finished" {
			t.Fatal("CampaignFinished fired for a cancelled campaign")
		}
	}
}

// TestBatchCancellation covers the batch path: cancelling before the run
// starts yields context.Canceled immediately.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &eventRecorder{}
	_, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithContext(ctx), WithObserver(rec))...).Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, e := range rec.snapshot() {
		if e == "finished" {
			t.Fatal("CampaignFinished fired for a cancelled campaign")
		}
	}
}
