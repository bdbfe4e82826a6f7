package server

import "net/http"

// route is one row of the server's single route table. Every endpoint
// the server mounts is declared here exactly once; registration on the
// mux, admission gating, the per-endpoint metric labels (the pattern
// string obs.Instrument labels with), and the /v1/status endpoint
// inventory all derive from this table instead of being maintained as
// parallel lists.
type route struct {
	method string
	path   string
	// weight > 0 puts the route behind the admission gate (the PR 5
	// weighted semaphore) at that cost. Routes that do their own
	// admission — the batch endpoint's dynamic weight, ingest's
	// per-instance queue budget — carry 0 here and shed internally.
	weight int64
	// tenant marks routes whose behavior is scoped by the
	// X-DBSherlock-Tenant header. The route wrapper resolves the header
	// once and hands the tenant to the handler (untenanted handlers get
	// "" and ignore it).
	tenant bool
	// handler is the method-expression form of the endpoint handler, so
	// the table can be a package-level constant-shaped value while the
	// handlers stay ordinary Server methods.
	handler func(*Server, http.ResponseWriter, *http.Request, string)
}

// pattern is the net/http ServeMux pattern; it doubles as the endpoint
// label on every metric and wide event.
func (rt route) pattern() string { return rt.method + " " + rt.path }

// routeTable is the single source of truth for the server's API
// surface. Adding an endpoint means adding a row; it is then mounted,
// instrumented, gated (if weighted), and reported by /v1/status
// automatically.
var routeTable = []route{
	{method: "GET", path: "/healthz", handler: (*Server).handleHealthz},
	{method: "GET", path: "/readyz", handler: (*Server).handleReadyz},
	{method: "GET", path: "/metrics", handler: (*Server).handleMetrics},
	{method: "GET", path: "/v1/status", handler: (*Server).handleStatus},
	{method: "POST", path: "/v1/datasets", tenant: true, handler: (*Server).handleUpload},
	{method: "GET", path: "/v1/datasets", tenant: true, handler: (*Server).handleListDatasets},
	{method: "DELETE", path: "/v1/datasets/{id}", tenant: true, handler: (*Server).handleDeleteDataset},
	{method: "POST", path: "/v1/detect", weight: 1, tenant: true, handler: (*Server).handleDetect},
	{method: "POST", path: "/v1/explain", weight: 1, tenant: true, handler: (*Server).handleExplain},
	{method: "POST", path: "/v1/explain/batch", tenant: true, handler: (*Server).handleExplainBatch},
	{method: "GET", path: "/v1/jobs/{id}", tenant: true, handler: (*Server).handleGetJob},
	{method: "POST", path: "/v1/learn", weight: 1, tenant: true, handler: (*Server).handleLearn},
	{method: "GET", path: "/v1/causes", tenant: true, handler: (*Server).handleCauses},
	{method: "GET", path: "/v1/models", tenant: true, handler: (*Server).handleExportModels},
	{method: "PUT", path: "/v1/models", tenant: true, handler: (*Server).handleImportModels},
	{method: "POST", path: "/v1/ingest/{instance}", tenant: true, handler: (*Server).handleIngest},
	{method: "GET", path: "/v1/instances", tenant: true, handler: (*Server).handleInstances},
	{method: "GET", path: "/v1/alerts/stream", tenant: true, handler: (*Server).handleAlertStream},
}

// registerRoutes mounts the whole table: each route is bound to its
// Server, resolves its tenant (400 invalid_tenant for an unusable
// header), is wrapped by the admission gate when weighted, and is
// instrumented under its pattern. The /v1/status endpoint inventory is
// materialized here too (rather than read from routeTable at request
// time, which would make the table's initializer cyclic through
// handleStatus). Only the conditional pprof/debug mounts live outside
// the table — they are not part of the API surface.
func (s *Server) registerRoutes() {
	s.endpoints = make([]endpointInfo, 0, len(routeTable))
	for _, rt := range routeTable {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var tenant string
			if rt.tenant {
				var err error
				if tenant, err = s.tenantFrom(r); err != nil {
					writeError(w, r, http.StatusBadRequest, CodeInvalidTenant, err)
					return
				}
			}
			rt.handler(s, w, r, tenant)
		})
		if rt.weight > 0 {
			h = s.gate(rt.pattern(), rt.weight, h)
		}
		s.handle(rt.pattern(), h)
		s.endpoints = append(s.endpoints, endpointInfo{
			Method:       rt.method,
			Path:         rt.path,
			Gated:        rt.weight > 0 && s.sem != nil,
			TenantScoped: rt.tenant,
		})
	}
}

// handleMetrics serves the Prometheus exposition; a table row like any
// other so scrape traffic shows up in the per-endpoint metrics too.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ string) {
	s.registry.Handler().ServeHTTP(w, r)
}

// endpointInfo is one row of the /v1/status endpoint inventory, derived
// from the route table.
type endpointInfo struct {
	Method       string `json:"method"`
	Path         string `json:"path"`
	Gated        bool   `json:"gated,omitempty"`
	TenantScoped bool   `json:"tenant_scoped,omitempty"`
}

// endpointInventory is the route table as /v1/status reports it,
// materialized by registerRoutes.
func (s *Server) endpointInventory() []endpointInfo { return s.endpoints }
