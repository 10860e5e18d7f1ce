package service

import (
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"

	"ofmf/internal/resilience"
)

// replicaMode is the service's read-replica serving state. GET and HEAD
// are answered from the local store — a replica's tree is the leader's,
// applied in commit order by the replication stream — while mutations
// and SSE (whose event sequence is leader-owned) go to the leader,
// either as a 307 redirect the client follows itself or through a
// reverse proxy when clients cannot chase redirects.
type replicaMode struct {
	// leader returns the current leader's base URL ("" while the
	// replication layer is between leaders).
	leader func() string
	// proxyWrites forwards mutations through this node instead of
	// redirecting the client.
	proxyWrites bool

	mu      sync.Mutex
	proxies map[string]*httputil.ReverseProxy
}

// SetReplicaMode switches the service into replica serving: local
// reads, forwarded writes. leader is consulted per request, so a
// failover needs no re-arm — the replication layer just starts
// returning the new leader's URL.
func (s *Service) SetReplicaMode(leader func() string, proxyWrites bool) {
	s.replica.Store(&replicaMode{
		leader:      leader,
		proxyWrites: proxyWrites,
		proxies:     make(map[string]*httputil.ReverseProxy),
	})
	s.log.Info("service: replica mode on", "proxy_writes", proxyWrites)
}

// ClearReplicaMode returns the service to normal read-write serving;
// the replication layer calls it on promotion.
func (s *Service) ClearReplicaMode() {
	if s.replica.Swap(nil) != nil {
		s.log.Info("service: replica mode off (promoted)")
	}
}

// forwardToLeader hands a request the replica must not serve to the
// leader. The redirect carries the original path and query, so any
// Redfish client that follows 307s (curl -L, the Go default client)
// keeps working unchanged against a replica endpoint.
func (s *Service) forwardToLeader(w http.ResponseWriter, r *http.Request, rm *replicaMode) {
	leaderURL := rm.leader()
	if leaderURL == "" {
		s.error(w, r, http.StatusServiceUnavailable, "Base.1.0.ServiceTemporarilyUnavailable",
			"replica has no leader to forward to; retry shortly")
		return
	}
	if !rm.proxyWrites {
		w.Header().Set("Location", leaderURL+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
		return
	}
	target, err := url.Parse(leaderURL)
	if err != nil {
		s.error(w, r, http.StatusBadGateway, "Base.1.0.GeneralError", "bad leader URL")
		return
	}
	rm.mu.Lock()
	proxy := rm.proxies[leaderURL]
	if proxy == nil {
		proxy = httputil.NewSingleHostReverseProxy(target)
		proxy.Transport = resilience.BaseTransport()
		rm.proxies[leaderURL] = proxy
	}
	rm.mu.Unlock()
	proxy.ServeHTTP(w, r)
}
