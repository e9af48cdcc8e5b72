package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidate checks every flag-combination rule: each row is refused
// with an error naming the offending flag, before any corpus is built,
// and the combinations that work pass.
func TestValidate(t *testing.T) {
	follower := func(edit func(*config)) config {
		cfg := config{follow: "http://leader:8080"}
		edit(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  config
		want string // substring of the error; "" = accepted
	}{
		{"plain server", config{}, ""},
		{"live leader with everything", config{live: true, replDir: "d", cdc: true, cdcPending: 150, stalenessN: 100, stalenessT: time.Second}, ""},
		{"disk mode", config{diskMode: true, snapLoad: "p"}, ""},
		{"follower", config{follow: "http://leader:8080", mend: true, cacheMB: 64}, ""},

		{"follow with -live", follower(func(c *config) { c.live = true }), "-follow is exclusive"},
		{"follow with -repl-dir", follower(func(c *config) { c.replDir = "d" }), "-follow is exclusive"},
		{"follow with -disk-mode", follower(func(c *config) { c.diskMode = true }), "-follow takes no"},
		{"follow with -snapshot-load", follower(func(c *config) { c.snapLoad = "p" }), "-follow takes no"},
		{"follow with -snapshot-save", follower(func(c *config) { c.snapSave = "p" }), "-follow takes no"},
		{"follow with -snapshot-save-paged", follower(func(c *config) { c.snapSavePgd = "p" }), "-follow takes no"},
		{"follow with -warm", follower(func(c *config) { c.warm = true }), "-follow takes no"},
		{"follow with -cdc", follower(func(c *config) { c.cdc = true }), "-follow takes no"},
		{"follow with -cdc-max-pending", follower(func(c *config) { c.cdcPending = 10 }), "-follow takes no"},
		{"follow with -staleness-max-deltas", follower(func(c *config) { c.stalenessN = 10 }), "-follow takes no"},
		{"follow with -staleness-max-age", follower(func(c *config) { c.stalenessT = time.Second }), "-follow takes no"},

		{"disk mode without snapshot", config{diskMode: true}, "-disk-mode needs -snapshot-load"},
		{"disk mode with -live", config{diskMode: true, snapLoad: "p", live: true}, "-disk-mode conflicts with -live"},
		{"disk mode with -warm", config{diskMode: true, snapLoad: "p", warm: true}, "-disk-mode conflicts with -warm"},
		{"disk mode with -snapshot-save", config{diskMode: true, snapLoad: "p", snapSave: "q"}, "-disk-mode cannot save"},
		{"disk mode with -snapshot-save-paged", config{diskMode: true, snapLoad: "p", snapSavePgd: "q"}, "-disk-mode cannot save"},
		{"repl-dir without -live", config{replDir: "d"}, "-repl-dir needs -live"},
		{"cdc without -live", config{cdc: true}, "-cdc needs -live"},
		{"staleness-max-deltas without -live", config{stalenessN: 10}, "need -live"},
		{"staleness-max-age without -live", config{stalenessT: time.Second}, "need -live"},
		{"cdc-max-pending without -cdc", config{live: true, cdcPending: 10}, "-cdc-max-pending needs -cdc"},
	} {
		err := tc.cfg.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
