package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tlrchol/internal/obs"
)

// Fleet runs N solve shards in one process behind a fingerprint
// router — the sharded deployment shape of a multi-node TLR solve
// service, with the network hop elided. Each shard is a full Server:
// its own factor cache (budget, LRU, single-flight), admission gate,
// batcher and solve-plan workers, on its own metrics registry. The
// router consistent-hashes the problem fingerprint (rendezvous order,
// router.go) to an owner shard, so:
//
//   - every factorization for a fingerprint lands on one shard, and
//     that shard's single-flight collapses concurrent builds — exactly
//     one factorization fleet-wide per fingerprint, with cross-shard
//     waiters parking on the owner's ready channel;
//   - cache capacity partitions instead of duplicating: S shards hold
//     S distinct working sets;
//   - hot fingerprints replicate to extra shards (replicate.go), and
//     the router spreads their solves across the copies by load;
//   - draining a shard re-routes only the keys it owned, and a
//     saturated owner's 429 degrades into a retry on a replica before
//     the client ever sees it.
//
// The router's trace and the shard's work share one trace id: the
// router records a router.route span, the shard a shard.solve /
// shard.factorize span, so /v1/trace/<id> shows the hop.
type Fleet struct {
	cfg      FleetConfig
	shardCfg Config // per-shard template with defaults applied
	reg      *obs.Registry
	shards   []*Server
	draining []atomic.Bool
	repl     *replicator
	tr       *tracer
	mux      *http.ServeMux
	started  time.Time

	httpErrors     *obs.Counter
	routeRequests  *obs.Counter
	routeFallbacks *obs.Counter
	routeRejected  *obs.Counter
	replicaServes  *obs.Counter
}

// FleetConfig sizes the fleet. Zero values take production defaults.
type FleetConfig struct {
	// Shards is the shard count (default 3).
	Shards int
	// Replicas is how many extra shards a hot factor is copied to
	// (default 1, clamped to Shards-1; 0 disables replication).
	Replicas int
	// PromoteAfter is the solve count within PromoteWindow that marks a
	// fingerprint hot (default 8).
	PromoteAfter int
	// PromoteWindow is the popularity decay window (default 10s).
	PromoteWindow time.Duration
	// Shard is the per-shard Server config. Shard.Metrics is ignored:
	// each shard gets its own registry so per-shard counters never
	// collide. Metrics, when set, receives the fleet's own counters
	// (default: a fresh registry).
	Shard   Config
	Metrics *obs.Registry
}

func (c *FleetConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	}
	if c.Replicas > c.Shards-1 {
		c.Replicas = c.Shards - 1
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 8
	}
	if c.PromoteWindow <= 0 {
		c.PromoteWindow = 10 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry(4)
	}
}

// NewFleet builds the fleet: cfg.Shards Servers, the replicator, and
// the routing front end.
func NewFleet(cfg FleetConfig) *Fleet {
	cfg.defaults()
	reg := cfg.Metrics
	fl := &Fleet{
		cfg:            cfg,
		reg:            reg,
		shards:         make([]*Server, cfg.Shards),
		draining:       make([]atomic.Bool, cfg.Shards),
		mux:            http.NewServeMux(),
		started:        time.Now(),
		httpErrors:     reg.Counter("fleet.http.errors"),
		routeRequests:  reg.Counter("fleet.route.requests"),
		routeFallbacks: reg.Counter("fleet.route.fallbacks"),
		routeRejected:  reg.Counter("fleet.route.rejected"),
		replicaServes:  reg.Counter("fleet.route.replica_serves"),
	}
	fl.shardCfg = cfg.Shard
	fl.shardCfg.defaults()
	fl.tr = newTracer(&fl.shardCfg, fl.httpErrors)
	for i := range fl.shards {
		sc := cfg.Shard
		sc.Metrics = obs.NewRegistry(4)
		sh := New(sc)
		sh.id = i
		fl.shards[i] = sh
	}
	fl.repl = newReplicator(fl, cfg.Replicas, cfg.PromoteAfter, cfg.PromoteWindow, reg)
	for _, sh := range fl.shards {
		// Owner-coordinated replica eviction: when a shard's cache drops
		// a fingerprint, every replica of it goes too. The hook runs
		// outside the cache lock (see FactorCache.finishEvictions), so
		// the replicator's lock never nests inside a cache's.
		sh.cache.SetOnEvict(func(fp string, f *Factor) { fl.repl.dropped(fp) })
	}

	fl.mux.HandleFunc("POST /v1/factorize", fl.tr.traced("/v1/factorize", true, fl.handleFactorize))
	fl.mux.HandleFunc("POST /v1/solve", fl.tr.traced("/v1/solve", true, fl.handleSolve))
	fl.mux.HandleFunc("GET /v1/trace/{id}", fl.tr.handleTrace)
	fl.mux.HandleFunc("GET /v1/stats", fl.tr.traced("/v1/stats", false, fl.handleStats))
	fl.mux.HandleFunc("GET /metrics", fl.handleMetrics)
	fl.mux.Handle("GET /debug/vars", expvar.Handler())
	return fl
}

// Handler returns the fleet's HTTP handler (same API surface as a
// single Server).
func (fl *Fleet) Handler() http.Handler { return fl.mux }

// NumShards reports the fleet width.
func (fl *Fleet) NumShards() int { return len(fl.shards) }

// SetDrain marks a shard draining (true) or serving (false). A
// draining shard stops owning fingerprints — the rendezvous order
// promotes the next shard — and stops receiving replica installs; its
// in-flight work finishes normally.
func (fl *Fleet) SetDrain(id int, draining bool) {
	if id >= 0 && id < len(fl.draining) {
		fl.draining[id].Store(draining)
	}
}

func (fl *Fleet) isDraining(id int) bool { return fl.draining[id].Load() }

func (fl *Fleet) fail(w http.ResponseWriter, code int, format string, args ...any) {
	failJSON(w, fl.httpErrors, code, format, args...)
}

func (fl *Fleet) failAPI(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	fl.fail(w, e.code, "%s", e.msg)
}

func (fl *Fleet) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		fl.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// routeFP normalizes the spec and computes the routing fingerprint —
// once, at the router; shards receive it as a hint and skip
// regenerating the geometry.
func (fl *Fleet) routeFP(sp *ProblemSpec) (string, error) {
	if err := sp.normalize(fl.shardCfg.MaxN); err != nil {
		return "", err
	}
	pts := sp.points()
	if err := validatePoints(pts); err != nil {
		return "", err
	}
	return Fingerprint(*sp, pts), nil
}

func (fl *Fleet) handleFactorize(w http.ResponseWriter, r *http.Request) {
	fl.routeRequests.Add(0, 1)
	var req FactorizeRequest
	if !fl.decode(w, r, &req) {
		return
	}
	rt := obs.TraceFrom(r.Context())
	routeStart := rt.Now()
	fp, err := fl.routeFP(&req.Problem)
	if err != nil {
		fl.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Factorizations route to the owner only: building on any other
	// shard would break the one-factorization-fleet-wide guarantee.
	owner := fl.owner(fp)
	rt.Span("router.route", -1, routeStart, rt.Now()-routeStart, obs.SpanInfo{}, false)
	rt.Tag("shard", strconv.Itoa(owner))
	resp, aerr := fl.shards[owner].doFactorize(r.Context(), &req, fp)
	if aerr != nil {
		if aerr.code == http.StatusTooManyRequests {
			fl.routeRejected.Add(0, 1)
		}
		fl.failAPI(w, aerr)
		return
	}
	resp.Shard = &owner
	writeJSON(w, http.StatusOK, resp)
}

func (fl *Fleet) handleSolve(w http.ResponseWriter, r *http.Request) {
	fl.routeRequests.Add(0, 1)
	var req SolveRequest
	if !fl.decode(w, r, &req) {
		return
	}
	rt := obs.TraceFrom(r.Context())
	routeStart := rt.Now()
	var (
		fp   string
		hint string
		err  error
	)
	switch {
	case req.Problem != nil:
		fp, err = fl.routeFP(req.Problem)
		if err != nil {
			fl.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		hint = fp
	case req.Fingerprint != "":
		fp = req.Fingerprint
	default:
		fl.fail(w, http.StatusBadRequest, "request must carry a problem spec or a fingerprint")
		return
	}
	owner := fl.owner(fp)
	cands := fl.solveCandidates(fp)
	rt.Span("router.route", -1, routeStart, rt.Now()-routeStart, obs.SpanInfo{}, false)

	// Try candidates best-first. Only capacity rejections fall through
	// to the next copy; every other error is the request's own fault or
	// a real failure, and retrying elsewhere would just repeat it.
	minRetry := 0
	var last *apiError
	for i, id := range cands {
		if i > 0 {
			fl.routeFallbacks.Add(0, 1)
		}
		resp, aerr := fl.shards[id].doSolve(r.Context(), &req, hint)
		if aerr == nil {
			sid := id
			resp.Shard = &sid
			resp.Replica = id != owner
			rt.Tag("shard", strconv.Itoa(id))
			if id != owner {
				fl.replicaServes.Add(0, 1)
			}
			fl.repl.noteSolve(resp.Fingerprint, fl.owner(resp.Fingerprint))
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if aerr.code != http.StatusTooManyRequests {
			rt.Tag("shard", strconv.Itoa(id))
			fl.failAPI(w, aerr)
			return
		}
		if minRetry == 0 || (aerr.retryAfter > 0 && aerr.retryAfter < minRetry) {
			minRetry = aerr.retryAfter
		}
		last = aerr
	}
	// Every copy is saturated: reject with the most optimistic hint any
	// shard offered.
	fl.routeRejected.Add(0, 1)
	last.retryAfter = minRetry
	fl.failAPI(w, last)
}

// SingleFlightStats aggregates the fleet-wide factorization economy.
type SingleFlightStats struct {
	// FactorizeRuns is the total number of factorizations actually
	// executed across all shards — the keystone number: a burst of
	// identical requests should move it by exactly one.
	FactorizeRuns uint64 `json:"factorize_runs"`
	CacheHits     uint64 `json:"cache_hits"`
	Waits         uint64 `json:"singleflight_waits"`
}

// RouterStats counts routing outcomes.
type RouterStats struct {
	Requests      uint64 `json:"requests"`
	Fallbacks     uint64 `json:"fallbacks"`
	Rejected      uint64 `json:"rejected"`
	ReplicaServes uint64 `json:"replica_serves"`
}

// ReplicationStats summarizes hot-factor replication.
type ReplicationStats struct {
	Promotions uint64 `json:"promotions"`
	Drops      uint64 `json:"drops"`
	Active     int    `json:"active"`
}

// ShardStatsEntry is one shard's slice of the fleet stats.
type ShardStatsEntry struct {
	ID            int            `json:"id"`
	Draining      bool           `json:"draining"`
	FactorizeRuns uint64         `json:"factorize_runs"`
	Cache         CacheStats     `json:"cache"`
	Admission     AdmissionStats `json:"admission"`
	Replica       ReplicaStats   `json:"replica"`
}

// FleetStatsResponse is the fleet's /v1/stats body.
type FleetStatsResponse struct {
	UptimeSec    float64           `json:"uptime_sec"`
	Shards       []ShardStatsEntry `json:"shards"`
	SingleFlight SingleFlightStats `json:"single_flight"`
	Router       RouterStats       `json:"router"`
	Replication  ReplicationStats  `json:"replication"`
	// Request is the router-observed end-to-end solve latency (shard
	// hop included).
	Request RequestLatencyStats `json:"request"`
	Flight  obs.FlightStats     `json:"flight"`
}

// Stats assembles the fleet-wide stats view.
func (fl *Fleet) Stats() FleetStatsResponse {
	resp := FleetStatsResponse{
		UptimeSec: time.Since(fl.started).Seconds(),
		Shards:    make([]ShardStatsEntry, len(fl.shards)),
		Router: RouterStats{
			Requests:      fl.routeRequests.Value(),
			Fallbacks:     fl.routeFallbacks.Value(),
			Rejected:      fl.routeRejected.Value(),
			ReplicaServes: fl.replicaServes.Value(),
		},
		Replication: ReplicationStats{
			Promotions: fl.repl.promotions.Value(),
			Drops:      fl.repl.drops.Value(),
			Active:     fl.repl.activeReplicas(),
		},
		Request: requestLatencyStats(fl.tr.reqLatency),
		Flight:  fl.tr.flight.Stats(),
	}
	for i, sh := range fl.shards {
		cs := sh.cache.Stats()
		resp.Shards[i] = ShardStatsEntry{
			ID:            i,
			Draining:      fl.isDraining(i),
			FactorizeRuns: sh.factorRuns.Value(),
			Cache:         cs,
			Admission:     sh.adm.Stats(),
			Replica:       sh.replicas.stats(),
		}
		resp.SingleFlight.FactorizeRuns += sh.factorRuns.Value()
		resp.SingleFlight.CacheHits += cs.Hits
		resp.SingleFlight.Waits += cs.Waits
	}
	return resp
}

func (fl *Fleet) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fl.Stats())
}

// handleMetrics merges every shard's registry (name-prefixed) with the
// fleet's own counters into one scrape.
func (fl *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, fl.reg.Snapshot().String())
	for i, sh := range fl.shards {
		fmt.Fprint(w, sh.reg.Snapshot().StringPrefix(fmt.Sprintf("shard%d.", i)))
	}
	fmt.Fprintf(w, "  %-28s %s\n", "fleet.uptime", time.Since(fl.started).Round(time.Second))
	fmt.Fprintf(w, "  %-28s %d\n", "fleet.shards", len(fl.shards))
}
