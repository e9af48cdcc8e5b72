package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"kqr"
)

// handleHealthz is the liveness probe: if the process can run this
// handler, it is alive. Always 200.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// readyzResponse is the /readyz payload. Reasons lists what is still
// missing when not ready.
type readyzResponse struct {
	Ready   bool     `json:"ready"`
	Epoch   uint64   `json:"epoch"`
	Reasons []string `json:"reasons,omitempty"`
}

// handleReadyz is the readiness probe: 200 once the engine is open,
// the initial generation is promoted, and any WithReadiness condition
// (warm finished, snapshot restored) holds; 503 otherwise, with the
// outstanding reasons. Load balancers route traffic on this.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{Ready: true}
	resp.Epoch = s.eng.Epoch()
	if resp.Epoch < 1 {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "no generation promoted")
	}
	if s.ready != nil && !s.ready() {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "startup not finished")
	}
	if s.replFollower != nil && !s.replFollower.CaughtUp(s.replMaxLag) {
		resp.Ready = false
		st := s.replFollower.Status()
		resp.Reasons = append(resp.Reasons, fmt.Sprintf(
			"replication lag: %d promotions behind leader (bound %d)", st.EpochLag(), s.replMaxLag))
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// adminHandler is a JSON-producing admin handler. It receives the
// ResponseWriter so body-reading handlers can arm http.MaxBytesReader
// correctly (the writer is how the reader closes the connection after
// an oversized body); handlers must not write to it — the admin wrapper
// owns status and body.
type adminHandler func(w http.ResponseWriter, r *http.Request) (any, error)

// admin adapts a JSON-producing admin handler: no cache, no limiter
// (operators must reach a saturated server), the shared error-to-status
// mapping (errorResponse), and one log line per request.
func (s *Server) admin(name string, h adminHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		w.Header().Set("Content-Type", "application/json")
		status := http.StatusOK
		var body []byte
		result, err := h(w, r)
		if err == nil {
			body, err = encodeBody(result)
		}
		if err != nil {
			status, body = errorResponse(err)
			w.WriteHeader(status)
		}
		w.Write(body)
		s.logRequest(r, status, "admin:"+name, start)
	}
}

// ingestRequest is the POST /api/admin/ingest body: a batch of deltas.
// Values follow the table's column order; JSON numbers become int64 for
// TypeInt columns.
type ingestRequest struct {
	Deltas []ingestDelta `json:"deltas"`
}

type ingestDelta struct {
	// Op is "insert" or "delete".
	Op    string            `json:"op"`
	Table string            `json:"table"`
	Value []json.RawMessage `json:"values,omitempty"`
	Key   json.RawMessage   `json:"key,omitempty"`
}

// decodeScalar turns one JSON value into the any-typed scalar
// kqr.Delta expects: strings stay strings, integral numbers become
// int64; anything else is rejected.
func decodeScalar(raw json.RawMessage) (any, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s, nil
	}
	var n json.Number
	if err := json.Unmarshal(raw, &n); err == nil {
		i, err := n.Int64()
		if err != nil {
			return nil, fmt.Errorf("non-integer number %s", n)
		}
		return i, nil
	}
	return nil, fmt.Errorf("value %s is neither string nor integer", string(raw))
}

// ingestResponse reports what was staged.
type ingestResponse struct {
	Staged  int    `json:"staged"`
	Pending int    `json:"pending"`
	Epoch   uint64 `json:"epoch"`
}

// maxIngestBody bounds the /api/admin/ingest request body.
const maxIngestBody = 8 << 20

func (s *Server) handleAdminIngest(w http.ResponseWriter, r *http.Request) (any, error) {
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	// A typoed key (say "delats") must be a 400, not a silently staged
	// empty batch.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest{fmt.Errorf("bad ingest body: %w", err)}
	}
	if len(req.Deltas) == 0 {
		return nil, badRequest{fmt.Errorf("empty delta batch")}
	}
	deltas := make([]kqr.Delta, len(req.Deltas))
	for i, d := range req.Deltas {
		kd := kqr.Delta{Table: d.Table}
		switch d.Op {
		case "insert":
			kd.Op = kqr.InsertTuple
			for _, raw := range d.Value {
				v, err := decodeScalar(raw)
				if err != nil {
					return nil, badRequest{fmt.Errorf("delta %d: %w", i, err)}
				}
				kd.Values = append(kd.Values, v)
			}
		case "delete":
			kd.Op = kqr.DeleteTuple
			if d.Key == nil {
				return nil, badRequest{fmt.Errorf("delta %d: delete needs key", i)}
			}
			v, err := decodeScalar(d.Key)
			if err != nil {
				return nil, badRequest{fmt.Errorf("delta %d: %w", i, err)}
			}
			kd.Key = v
		default:
			return nil, badRequest{fmt.Errorf("delta %d: op must be insert or delete, got %q", i, d.Op)}
		}
		deltas[i] = kd
	}
	if err := s.eng.Ingest(deltas); err != nil {
		if errors.Is(err, kqr.ErrLiveDisabled) {
			return nil, err
		}
		return nil, badRequest{err}
	}
	return ingestResponse{Staged: len(deltas), Pending: s.eng.PendingDeltas(), Epoch: s.eng.Epoch()}, nil
}

// promoteTimings renders the promotion's per-phase wall-clock costs in
// human-readable form alongside the raw nanosecond fields the embedded
// GenerationInfo already carries.
type promoteTimings struct {
	ApplyDeltas string `json:"apply_deltas"`
	BuildGraph  string `json:"build_graph"`
	Precompute  string `json:"precompute"`
	Total       string `json:"total"`
}

// promoteResponse is the POST /api/admin/promote payload: the new
// generation's provenance plus a per-phase timing breakdown.
type promoteResponse struct {
	kqr.GenerationInfo
	Timings promoteTimings `json:"timings"`
}

func (s *Server) handleAdminPromote(_ http.ResponseWriter, r *http.Request) (any, error) {
	info, err := s.eng.Promote(r.Context())
	if err != nil {
		return nil, err
	}
	return promoteResponse{
		GenerationInfo: info,
		Timings: promoteTimings{
			ApplyDeltas: info.ApplyDeltas.String(),
			BuildGraph:  info.BuildGraph.String(),
			Precompute:  info.Precompute.String(),
			Total:       info.Total.String(),
		},
	}, nil
}

// generationResponse is the GET /api/admin/generation payload: the
// current generation's provenance plus the staged-delta backlog.
type generationResponse struct {
	kqr.GenerationInfo
	PendingDeltas int `json:"pending_deltas"`
}

func (s *Server) handleAdminGeneration(http.ResponseWriter, *http.Request) (any, error) {
	return generationResponse{
		GenerationInfo: s.eng.Generation(),
		PendingDeltas:  s.eng.PendingDeltas(),
	}, nil
}
