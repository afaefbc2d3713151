package server

// GET /metrics: hand-rolled Prometheus text exposition (no client
// library — the format is four line shapes). Families are assembled
// from the fair queue, the store, the HTTP middleware counters and, in
// cluster mode, the coordinator's lease table. The families emitted
// here are documented in docs/FARM.md and asserted by the e2e metrics
// smoke test — extend both when adding one.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

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

// tenantSample emits one sample labeled with a tenant ("" renders as
// the anonymous tenant label so the row is still addressable).
func (p *promWriter) tenantSample(name, tenant string, v uint64) {
	if tenant == "" {
		tenant = "anonymous"
	}
	fmt.Fprintf(&p.b, "%s{tenant=\"%s\"} %d\n", name, promEscape(tenant), v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var p promWriter
	fs := s.fair.Stats()

	p.family("shotgun_queue_depth", "Jobs waiting in the fair-share queue across all tenants.", "gauge")
	p.sample("shotgun_queue_depth", uint64(fs.Waiting))
	p.family("shotgun_inflight_jobs", "Jobs resident in the executor (dispatched, not yet terminal).", "gauge")
	p.sample("shotgun_inflight_jobs", uint64(fs.InFlight))
	p.family("shotgun_queue_slots", "Fair-queue residency bound (jobs dispatched at once).", "gauge")
	p.sample("shotgun_queue_slots", uint64(fs.Slots))
	p.family("shotgun_shed_total", "Submissions shed by the global queue bound (503 + Retry-After).", "counter")
	p.sample("shotgun_shed_total", fs.Shed)

	// Per-tenant rows, sorted for a deterministic scrape.
	tenants := make([]string, 0, len(fs.Tenants))
	for name := range fs.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	p.family("shotgun_tenant_queued", "Jobs waiting in the fair queue, per tenant.", "gauge")
	for _, t := range tenants {
		p.tenantSample("shotgun_tenant_queued", t, uint64(fs.Tenants[t].Waiting))
	}
	p.family("shotgun_tenant_running", "Jobs resident in the executor, per tenant.", "gauge")
	for _, t := range tenants {
		p.tenantSample("shotgun_tenant_running", t, uint64(fs.Tenants[t].InFlight))
	}
	p.family("shotgun_tenant_completed_total", "Jobs completed, per tenant.", "counter")
	for _, t := range tenants {
		p.tenantSample("shotgun_tenant_completed_total", t, fs.Tenants[t].Completed)
	}
	p.family("shotgun_tenant_failed_total", "Jobs failed, per tenant.", "counter")
	for _, t := range tenants {
		p.tenantSample("shotgun_tenant_failed_total", t, fs.Tenants[t].Failed)
	}
	p.family("shotgun_tenant_rejected_total", "Submissions rejected by quota or shed, per tenant.", "counter")
	for _, t := range tenants {
		p.tenantSample("shotgun_tenant_rejected_total", t, fs.Tenants[t].Rejected)
	}

	// Rate-limit rows exist only for tenants with a max_rps bound —
	// sorted like the scheduler rows for a deterministic scrape.
	if limited := s.limits.rejectedByTenant(); len(limited) > 0 {
		names := make([]string, 0, len(limited))
		for name := range limited {
			names = append(names, name)
		}
		sort.Strings(names)
		p.family("shotgun_tenant_rate_limited_total", "Requests rejected by the tenant's max_rps bound (429 rate_limited).", "counter")
		for _, t := range names {
			p.tenantSample("shotgun_tenant_rate_limited_total", t, limited[t])
		}
	}

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
