package service

import "net/http"

// SetReplicaMode switches the service into read-replica serving. GET and
// HEAD are answered from the local store — a replica's tree is the
// leader's, applied in commit order by the replication stream — while
// mutations and SSE (whose event sequence is leader-owned) go to the
// leader as a 307 redirect the client follows itself. leader returns
// the current leader's base URL ("" while the replication layer is
// between leaders); it is consulted per request, so a failover needs no
// re-arm.
func (s *Service) SetReplicaMode(leader func() string) {
	s.replica.Store(&leader)
	s.log.Info("service: replica mode on")
}

// ClearReplicaMode returns the service to normal read-write serving;
// the replication layer calls it on promotion.
func (s *Service) ClearReplicaMode() {
	if s.replica.Swap(nil) != nil {
		s.log.Info("service: replica mode off (promoted)")
	}
}

// forwardToLeader redirects a request the replica must not serve to the
// leader. The redirect carries the original path and query, so any
// Redfish client that follows 307s (curl -L, the Go default client)
// keeps working unchanged against a replica endpoint.
func (s *Service) forwardToLeader(w http.ResponseWriter, r *http.Request, leader func() string) {
	leaderURL := leader()
	if leaderURL == "" {
		s.error(w, r, http.StatusServiceUnavailable, "Base.1.0.ServiceTemporarilyUnavailable",
			"replica has no leader to forward to; retry shortly")
		return
	}
	w.Header().Set("Location", leaderURL+r.URL.RequestURI())
	w.WriteHeader(http.StatusTemporaryRedirect)
}
