package server

import (
	"errors"
	"net/http"

	"kqr/internal/repl"
)

// ErrFollowerReadOnly is returned (as HTTP 409) by the admin write
// endpoints on a replica running in follower mode: its corpus is
// defined by the leader's delta log, so local ingests and promotions
// would fork it off the replicated history. Send writes to the leader.
var ErrFollowerReadOnly = errors.New("server: replica is a follower; send writes to the leader")

// WithReplicationLeader mounts the replication leader's protocol
// endpoints (/repl/snapshot, /repl/log, /repl/status) on the server and
// includes the leader's status in /api/metrics. The leader must already
// be attached to the same engine's generation manager.
func WithReplicationLeader(l *repl.Leader) Option {
	return func(s *Server) { s.replLeader = l }
}

// FollowerMaxEpochLag is how many promotions a follower may trail the
// leader by before its /readyz reports not ready.
const FollowerMaxEpochLag = 1

// WithReplicationFollower marks this server as a follower replica: the
// follower's replication lag is included in /api/metrics, /readyz
// additionally requires the follower to be within FollowerMaxEpochLag
// promotions of the leader, and the admin write endpoints
// (/api/admin/ingest, /api/admin/promote) are rejected with 409 — a
// follower's corpus changes only by replaying the leader's log.
func WithReplicationFollower(f *repl.Follower) Option {
	return func(s *Server) { s.replFollower = f }
}

// replicationMetrics is the "replication" block of /api/metrics,
// present only on replicas with a replication role.
type replicationMetrics struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Leader is the delta-log state (leader role only).
	Leader *repl.LeaderStatus `json:"leader,omitempty"`
	// Follower is the lag state (follower role only): leader epoch
	// delta, last-applied offset, bytes behind.
	Follower *repl.FollowerStatus `json:"follower,omitempty"`
}

// replication assembles the metrics block for this replica's role, nil
// when replication is not configured.
func (s *Server) replication() *replicationMetrics {
	switch {
	case s.replLeader != nil:
		st := s.replLeader.Status()
		return &replicationMetrics{Role: "leader", Leader: &st}
	case s.replFollower != nil:
		st := s.replFollower.Status()
		return &replicationMetrics{Role: "follower", Follower: &st}
	}
	return nil
}

// rejectFollowerWrites guards an admin write handler: on a follower it
// fails with ErrFollowerReadOnly (mapped to 409), elsewhere it runs h.
func (s *Server) rejectFollowerWrites(h adminHandler) adminHandler {
	return func(w http.ResponseWriter, r *http.Request) (any, error) {
		if s.replFollower != nil {
			return nil, ErrFollowerReadOnly
		}
		return h(w, r)
	}
}
