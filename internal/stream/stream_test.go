package stream

import (
	"context"
	"errors"
	"io"
	"slices"
	"testing"
	"time"
)

// TestRunBackoff: the backoff doubles up to its cap, resets after a
// session that made progress, and a Terminal error ends Run unwrapped.
func TestRunBackoff(t *testing.T) {
	const ms = 20 * time.Millisecond
	tm := Timing{MinBackoff: ms, MaxBackoff: 4 * ms}
	fatal := errors.New("fatal")
	progress := []bool{false, false, false, false, true, false}
	var starts []time.Time
	err := tm.Run(context.Background(), func(context.Context) (bool, error) {
		if starts = append(starts, time.Now()); len(starts) > len(progress) {
			return false, Terminal(fatal)
		}
		return progress[len(starts)-1], io.ErrUnexpectedEOF
	})
	if err != fatal {
		t.Fatalf("Run = %v, want the terminal error itself", err)
	}
	// Each wait is at least its backoff and less than the next doubling
	// above it (the cap holds, and progress resets to the minimum).
	for i, want := range []time.Duration{ms, 2 * ms, 4 * ms, 4 * ms, ms, 2 * ms} {
		if got := starts[i+1].Sub(starts[i]); got < want || got >= 2*want {
			t.Fatalf("wait %d was %v, want [%v, %v)", i+1, got, want, 2*want)
		}
	}

	if err := tm.Run(context.Background(), func(context.Context) (bool, error) { return false, nil }); err != nil {
		t.Fatalf("a finished session: Run = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tm.Run(ctx, func(context.Context) (bool, error) { return true, io.EOF }); err != context.Canceled {
		t.Fatalf("a cancelled context: Run = %v, want context.Canceled", err)
	}
}

// TestWriterHeartbeat: a Writer beats only once it has been idle for a
// heartbeat interval, and never after Close.
func TestWriterHeartbeat(t *testing.T) {
	const every = 50 * time.Millisecond
	var frames []string // written under the Writer's lock
	w := NewWriter(Timing{Heartbeat: every}, io.Discard, nil, func(_ io.Writer, f string) error {
		frames = append(frames, f)
		return nil
	})
	w.Heartbeat(func() string { return "beat" })
	for end := time.Now().Add(3 * every); time.Now().Before(end); time.Sleep(every / 10) {
		if err := w.Send("data"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(3 * every)
	w.Close()
	if err := w.Send("late"); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	time.Sleep(2 * every)

	busy := slices.Index(frames, "beat")
	if busy < 0 || slices.Contains(frames[busy:], "data") {
		t.Fatalf("frames %v: a beat went out while data was flowing, or none went out", frames)
	}
	if beats := len(frames) - busy; beats < 2 || beats > 3 {
		t.Fatalf("%d beats in three idle intervals, want 2 or 3 (frames %v)", beats, frames)
	}
}
