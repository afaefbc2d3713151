package server

// GET /metrics: hand-rolled Prometheus text exposition (no client
// library — the format is four line shapes). Families are assembled
// from the job queue, the store, the HTTP middleware counters and, in
// cluster mode, the coordinator's lease table. The families emitted
// here are documented in docs/FARM.md and asserted by the e2e metrics
// smoke test — extend both when adding one.

import (
	"fmt"
	"net/http"
	"strings"
)

// promWriter accumulates one exposition document.
type promWriter struct {
	b strings.Builder
}

// family starts a new metric family.
func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one unlabeled sample.
func (p *promWriter) sample(name string, v uint64) {
	fmt.Fprintf(&p.b, "%s %d\n", name, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var p promWriter
	qs := s.queue.Stats()

	p.family("shotgun_queue_depth", "Accepted jobs not yet running.", "gauge")
	p.sample("shotgun_queue_depth", uint64(qs.Queued))
	p.family("shotgun_inflight_jobs", "Jobs running on a local or cluster worker.", "gauge")
	p.sample("shotgun_inflight_jobs", uint64(qs.Running))
	p.family("shotgun_shed_total", "Submissions shed by the -max-queue bound (503 + Retry-After).", "counter")
	p.sample("shotgun_shed_total", qs.Shed)

	if s.st != nil {
		st := s.st.Stats()
		p.family("shotgun_store_hits_total", "Persistent-store reads that found a record.", "counter")
		p.sample("shotgun_store_hits_total", st.Hits)
		p.family("shotgun_store_misses_total", "Persistent-store reads that found nothing.", "counter")
		p.sample("shotgun_store_misses_total", st.Misses)
		p.family("shotgun_store_puts_total", "Persistent-store records written.", "counter")
		p.sample("shotgun_store_puts_total", st.Puts)
		p.family("shotgun_store_records", "Records currently indexed by the store.", "gauge")
		p.sample("shotgun_store_records", uint64(st.Records))
	}

	if s.clusterStats != nil {
		cs := s.clusterStats()
		p.family("shotgun_lease_granted_total", "Jobs leased to cluster workers.", "counter")
		p.sample("shotgun_lease_granted_total", cs.Leased)
		p.family("shotgun_lease_requeued_total", "Leases expired and requeued (worker death or stall).", "counter")
		p.sample("shotgun_lease_requeued_total", cs.Requeued)
		p.family("shotgun_lease_expired_total", "Jobs failed after exhausting their lease-attempt budget.", "counter")
		p.sample("shotgun_lease_expired_total", cs.Expired)
		p.family("shotgun_cluster_workers", "Workers seen within two lease TTLs.", "gauge")
		p.sample("shotgun_cluster_workers", uint64(cs.ActiveWorkers))
	}

	p.family("shotgun_http_responses_total", "HTTP responses by status class.", "counter")
	for _, c := range []struct {
		class string
		n     uint64
	}{
		{"2xx", s.httpStats.by2xx.Load()},
		{"4xx", s.httpStats.by4xx.Load()},
		{"5xx", s.httpStats.by5xx.Load()},
	} {
		fmt.Fprintf(&p.b, "shotgun_http_responses_total{class=%q} %d\n", c.class, c.n)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.b.String())
}
