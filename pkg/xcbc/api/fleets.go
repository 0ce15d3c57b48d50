package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"xcbc/pkg/xcbc"
)

// This file serves the fleet-scale surface: /api/v1/fleets mirrors
// pkg/xcbc's Fleet and RunScenario. A fleet is created (and by default
// provisioned) asynchronously with POST; scenario runs against a fleet are
// asynchronous jobs of their own, one at a time per fleet so the seeded
// trace stays deterministic.

// Caps on a single fleet creation request so one POST cannot commit the
// control plane to unbounded memory or CPU: member count, per-member
// compute nodes, and the product (total simulated nodes) are all bounded.
const (
	maxFleetMembers    = 2048
	maxNodesPerMember  = 256
	maxFleetTotalNodes = 16384
)

// fleetRecord is one managed fleet plus its scenario run history. tn is
// the owning tenant, so the run executor (shared by the live path and
// recovery) journals through the right shard's store.
type fleetRecord struct {
	ID      string
	Name    string
	Created time.Time
	Fleet   *xcbc.Fleet
	tn      *tenant

	mu      sync.Mutex
	runs    []*scenarioRun
	nextRun int
	runLive bool // a scenario is currently executing
}

// scenarioRun is one asynchronous scenario execution.
type scenarioRun struct {
	ID       string
	Scenario string
	Created  time.Time
	done     chan struct{}

	mu     sync.Mutex
	state  string // "running", "passed", "failed", "error"
	result *xcbc.ScenarioResult
	err    error
}

func (r *scenarioRun) snapshot() (state string, result *xcbc.ScenarioResult, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state, r.result, r.err
}

// createFleetRequest provisions a new fleet of simulated clusters.
type createFleetRequest struct {
	Name        string `json:"name"`
	Members     int    `json:"members"`
	Cluster     string `json:"cluster"`
	Nodes       int    `json:"nodes"`
	Scheduler   string `json:"scheduler"`
	Parallelism int    `json:"parallelism"`
	Retries     int    `json:"retries"`
	Workers     int    `json:"workers"`
	// Provision defaults to true; set false to create the fleet resource
	// without starting builds (a scenario's provision phase can start them
	// later).
	Provision *bool `json:"provision"`
}

// fleetMemberInfo is the JSON shape of one fleet member.
type fleetMemberInfo struct {
	ID    string `json:"id"`
	Index int    `json:"index"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// fleetInfo is the JSON shape of one fleet.
type fleetInfo struct {
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	Created   time.Time         `json:"created"`
	Status    xcbc.FleetStatus  `json:"status"`
	Settled   bool              `json:"settled"`
	Scenarios int               `json:"scenarios"`
	Members   []fleetMemberInfo `json:"members,omitempty"`
}

func (s *Server) fleetInfoOf(fr *fleetRecord, withMembers bool) fleetInfo {
	st := fr.Fleet.Status()
	fr.mu.Lock()
	runs := len(fr.runs)
	fr.mu.Unlock()
	info := fleetInfo{
		ID: fr.ID, Name: fr.Name, Created: fr.Created,
		Status: st, Settled: st.Settled(), Scenarios: runs,
	}
	if withMembers {
		for _, m := range fr.Fleet.Members() {
			mi := fleetMemberInfo{ID: m.ID(), Index: m.Index(), State: string(m.Status())}
			if err := m.Err(); err != nil {
				mi.Error = err.Error()
			}
			info.Members = append(info.Members, mi)
		}
	}
	return info
}

func lookupFleet(tn *tenant, id string) (*fleetRecord, bool) {
	tn.mu.RLock()
	fr, ok := tn.fleets[id]
	tn.mu.RUnlock()
	return fr, ok
}

func (s *Server) handleFleets(w http.ResponseWriter, r *http.Request) {
	pg, err := parsePage(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tn := s.tenant(r)
	tn.mu.RLock()
	ids := make([]string, 0, len(tn.fleets))
	for id := range tn.fleets { //detlint:ordered pageIDs sorts before any ID is used
		ids = append(ids, id)
	}
	ids, next := pageIDs(ids, pg)
	frs := make([]*fleetRecord, 0, len(ids))
	for _, id := range ids {
		frs = append(frs, tn.fleets[id])
	}
	tn.mu.RUnlock()
	out := make([]fleetInfo, 0, len(frs))
	for _, fr := range frs {
		out = append(out, s.fleetInfoOf(fr, false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"fleets": out, "count": len(out), "next_cursor": next})
}

// handleCreateFleet validates the request synchronously, then starts
// provisioning in the background and answers 202 Accepted with the fleet
// in its initial state.
func (s *Server) handleCreateFleet(w http.ResponseWriter, r *http.Request) {
	var req createFleetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Members > maxFleetMembers {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("members exceeds the per-fleet cap of %d", maxFleetMembers))
		return
	}
	if req.Nodes > maxNodesPerMember {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("nodes exceeds the per-member cap of %d", maxNodesPerMember))
		return
	}
	// Catalog machines top out below 256 computes, so nodes==0 (as
	// cataloged) is already covered by the member cap.
	if req.Nodes > 0 && req.Members > 0 && req.Members*req.Nodes > maxFleetTotalNodes {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("members*nodes exceeds the fleet-wide cap of %d simulated nodes", maxFleetTotalNodes))
		return
	}
	tn := s.tenant(r)
	fl, err := xcbc.NewFleet(fleetSpecOf(req))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Builds must outlive this request; they stop via DELETE.
	provisioned := req.Provision == nil || *req.Provision
	if provisioned {
		if err := fl.Provision(context.Background()); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	tn.mu.Lock()
	// Quota check and insert share one critical section, so concurrent
	// creates cannot both squeeze under the cap.
	if max := tn.quotas.MaxFleets; max > 0 && len(tn.fleets) >= max {
		inUse := len(tn.fleets)
		tn.mu.Unlock()
		fl.Cancel()
		writeQuotaError(w, "fleets", max, inUse)
		return
	}
	tn.nextFleetID++
	fr := &fleetRecord{
		ID:      fmt.Sprintf("f%d", tn.nextFleetID),
		Name:    req.Name,
		Created: s.clock(),
		Fleet:   fl,
		tn:      tn,
	}
	tn.fleets[fr.ID] = fr
	tn.mu.Unlock()
	if tn.store != nil {
		tn.store.emit(recFleetCreated, fleetCreatedRec{
			ID: fr.ID, Name: req.Name, Req: req, Created: fr.Created, Provisioned: provisioned,
		})
		tn.store.attachFleet(fr)
	}
	writeJSON(w, http.StatusAccepted, s.fleetInfoOf(fr, true))
}

// fleetSpecOf turns a create request into an SDK fleet spec; the create
// handler and recovery share it so a recovered fleet is sized exactly as
// the original was.
func fleetSpecOf(req createFleetRequest) xcbc.FleetSpec {
	return xcbc.FleetSpec{
		Name: req.Name, Members: req.Members, Cluster: req.Cluster,
		Nodes: req.Nodes, Scheduler: req.Scheduler,
		Parallelism: req.Parallelism, Retries: req.Retries, Workers: req.Workers,
	}
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	fr, ok := lookupFleet(s.tenant(r), r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown fleet")
		return
	}
	writeJSON(w, http.StatusOK, s.fleetInfoOf(fr, true))
}

// handleDeleteFleet mirrors the deployment contract: an unsettled fleet is
// cancelled (202, record kept so the cancellation can be observed); a
// settled one is removed (204). A fleet with a scenario run still
// executing cannot be removed — deleting it would orphan the run and its
// trace — so that answers 409 until the run settles.
func (s *Server) handleDeleteFleet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tn := s.tenant(r)
	tn.mu.Lock()
	fr, ok := tn.fleets[id]
	if ok {
		fr.mu.Lock()
		live := fr.runLive
		fr.mu.Unlock()
		if live {
			tn.mu.Unlock()
			writeError(w, http.StatusConflict,
				"a scenario is still running on this fleet; wait for it to settle before deleting")
			return
		}
		if fr.Fleet.Status().Settled() {
			delete(tn.fleets, id)
			tn.mu.Unlock()
			if tn.store != nil {
				fr.Fleet.SetJournalSink(nil)
				tn.store.emit(recFleetDeleted, idRec{ID: id})
			}
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	tn.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown fleet")
		return
	}
	fr.Fleet.Cancel()
	writeJSON(w, http.StatusAccepted, s.fleetInfoOf(fr, false))
}

// runScenarioRequest starts a scenario against a fleet: either a built-in
// by name, or an inline scenario document.
type runScenarioRequest struct {
	Name     string          `json:"name"`     // built-in scenario name
	Scenario json.RawMessage `json:"scenario"` // or an inline script
}

// scenarioRunInfo is the JSON shape of one scenario run. Events carries
// the trace slice requested via ?cursor=N once the run settles.
type scenarioRunInfo struct {
	ID         string              `json:"id"`
	Scenario   string              `json:"scenario"`
	State      string              `json:"state"`
	Created    time.Time           `json:"created"`
	Error      string              `json:"error,omitempty"`
	Passed     bool                `json:"passed"`
	Violations []string            `json:"violations,omitempty"`
	Stats      *xcbc.ScenarioStats `json:"stats,omitempty"`
	Events     []xcbc.TraceEvent   `json:"events,omitempty"`
	NextCursor int                 `json:"next_cursor"`
}

func runInfoOf(run *scenarioRun, withEvents bool, pg page) scenarioRunInfo {
	state, result, err := run.snapshot()
	info := scenarioRunInfo{
		ID: run.ID, Scenario: run.Scenario, State: state, Created: run.Created,
	}
	if err != nil {
		info.Error = err.Error()
	}
	if result != nil {
		info.Passed = result.Passed()
		info.Violations = result.Violations()
		st := result.Stats()
		info.Stats = &st
		trace := result.Trace()
		info.NextCursor = len(trace)
		if withEvents {
			cursor := pg.cursor
			if cursor > len(trace) {
				cursor = len(trace)
			}
			end := len(trace)
			if pg.limit > 0 && cursor+pg.limit < end {
				end = cursor + pg.limit
			}
			info.Events = trace[cursor:end]
			info.NextCursor = end
		}
	}
	return info
}

// handleRunScenario starts one scenario run on a fleet: 202 Accepted with
// the run in state "running". One run at a time per fleet — concurrent
// scenarios would interleave day-2 operations and break the seeded trace —
// so a second request while one is live answers 409 Conflict.
func (s *Server) handleRunScenario(w http.ResponseWriter, r *http.Request) {
	tn := s.tenant(r)
	fr, ok := lookupFleet(tn, r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown fleet")
		return
	}
	var req runScenarioRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var sc *xcbc.Scenario
	var err error
	switch {
	case req.Name != "" && len(req.Scenario) > 0:
		writeError(w, http.StatusBadRequest, "give either a built-in name or an inline scenario, not both")
		return
	case req.Name != "":
		sc, err = xcbc.BuiltinScenario(req.Name)
		if errors.Is(err, xcbc.ErrUnknownScenario) {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
	case len(req.Scenario) > 0:
		sc, err = xcbc.LoadScenario(req.Scenario)
	default:
		writeError(w, http.StatusBadRequest, "name or scenario is required")
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if sc.Members() != fr.Fleet.Len() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("scenario wants %d members but fleet %s has %d", sc.Members(), fr.ID, fr.Fleet.Len()))
		return
	}
	if sc.RequiresFreshFleet() && fr.Fleet.Provisioned() {
		writeError(w, http.StatusBadRequest,
			"scenario arms kickstart faults; run it on a fleet created with \"provision\": false whose builds have not started")
		return
	}

	fr.mu.Lock()
	if fr.runLive {
		fr.mu.Unlock()
		writeError(w, http.StatusConflict, "a scenario is already running on this fleet; wait for it to settle")
		return
	}
	fr.runLive = true
	fr.nextRun++
	run := &scenarioRun{
		ID:       fmt.Sprintf("s%d", fr.nextRun),
		Scenario: sc.Name(),
		Created:  s.clock(),
		state:    "running",
		done:     make(chan struct{}),
	}
	fr.runs = append(fr.runs, run)
	fr.mu.Unlock()

	if tn.store != nil {
		doc, err := sc.JSON()
		if err != nil {
			doc = req.Scenario // inline doc as submitted; never nil for builtins
		}
		tn.store.emit(recScenarioStarted, scenarioStartedRec{
			FleetID: fr.ID, RunID: run.ID, Name: sc.Name(),
			Scenario: doc, Created: run.Created,
		})
	}
	go s.executeRun(fr, run, sc, nil)
	writeJSON(w, http.StatusAccepted, runInfoOf(run, false, page{}))
}

// executeRun drives one scenario run to settlement. The live handler
// calls it on a fresh goroutine; recovery calls it synchronously, with a
// replay target, to re-run a scenario that was in flight at a crash — in
// that case the regenerated trace's rolling hash must reproduce the
// recorded hash at the recorded cursor, or the run settles as "error"
// rather than presenting a trace the crashed server never produced.
func (s *Server) executeRun(fr *fleetRecord, run *scenarioRun, sc *xcbc.Scenario, target *replayTarget) {
	st := fr.tn.store
	var obs func(xcbc.TraceEvent)
	var got uint64
	var reached bool
	if st != nil {
		th := newTraceHash()
		obs = func(ev xcbc.TraceEvent) {
			cursor, sum := th.add(ev)
			if target != nil && cursor == target.cursor {
				got, reached = sum, true
			}
			st.emit(recScenarioProgress, scenarioProgressRec{
				FleetID: fr.ID, RunID: run.ID, Cursor: cursor, Hash: sum,
			})
		}
	}
	result, err := fr.Fleet.RunScenarioObserved(context.Background(), sc, obs)
	if err == nil && target != nil && target.cursor > 0 && (!reached || got != target.hash) {
		err = fmt.Errorf("%w at recorded cursor %d", errReplayDiverged, target.cursor)
		result = nil
	}
	var state, errMsg string
	switch {
	case err != nil:
		state, errMsg = "error", err.Error()
	case result.Passed():
		state = "passed"
	default:
		state = "failed"
	}
	// Journal the settlement before publishing it: a client that sees the
	// settled state must find the run settled after a restart too.
	if st != nil {
		rec := scenarioSettledRec{FleetID: fr.ID, RunID: run.ID, State: state, Error: errMsg}
		if result != nil {
			if data, jerr := result.ResultJSON(); jerr == nil {
				rec.Result = data
			}
		}
		st.emit(recScenarioSettled, rec)
		// A provision phase may have built the fleet's members mid-run;
		// record that so recovery re-provisions before restoring results.
		if fr.Fleet.Provisioned() {
			st.emit(recFleetProvisioned, idRec{ID: fr.ID})
		}
	}
	run.mu.Lock()
	run.state = state
	if err != nil {
		run.err = err
	} else {
		run.result = result
	}
	run.mu.Unlock()
	fr.mu.Lock()
	fr.runLive = false
	fr.mu.Unlock()
	close(run.done)
}

func (s *Server) lookupRun(fr *fleetRecord, sid string) (*scenarioRun, bool) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for _, run := range fr.runs {
		if run.ID == sid {
			return run, true
		}
	}
	return nil, false
}

func (s *Server) handleScenarioRuns(w http.ResponseWriter, r *http.Request) {
	fr, ok := lookupFleet(s.tenant(r), r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown fleet")
		return
	}
	pg, err := parsePage(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	fr.mu.Lock()
	runs := append([]*scenarioRun(nil), fr.runs...)
	fr.mu.Unlock()
	// Runs are appended in creation order with ascending numeric IDs, so
	// the slice is already cursor-ordered.
	out := make([]scenarioRunInfo, 0, min(len(runs), pg.limit))
	next := pg.cursor
	for _, run := range runs {
		n := numSuffix(run.ID)
		if n <= pg.cursor {
			continue
		}
		if len(out) >= pg.limit {
			break
		}
		out = append(out, runInfoOf(run, false, page{}))
		next = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out, "count": len(out), "next_cursor": next})
}

// handleScenarioRun reports one run; ?cursor=N selects which trace events
// ride along once the run settles (pass back next_cursor to page).
func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	fr, ok := lookupFleet(s.tenant(r), r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown fleet")
		return
	}
	run, ok := s.lookupRun(fr, r.PathValue("sid"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario run")
		return
	}
	pg, err := parsePage(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, runInfoOf(run, true, pg))
}

// handleScenarios lists the built-in scenarios a client can POST by name.
// The list is immutable, so the cursor is a plain offset into it.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	pg, err := parsePage(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	type builtinInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Members     int    `json:"members"`
		Seed        int64  `json:"seed"`
	}
	names := xcbc.BuiltinScenarios()
	start := min(pg.cursor, len(names))
	end := min(start+pg.limit, len(names))
	out := make([]builtinInfo, 0, end-start)
	for _, name := range names[start:end] {
		sc, err := xcbc.BuiltinScenario(name)
		if err != nil {
			continue
		}
		out = append(out, builtinInfo{
			Name: sc.Name(), Description: sc.Description(),
			Members: sc.Members(), Seed: sc.Seed(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": out, "count": len(out), "next_cursor": end})
}
