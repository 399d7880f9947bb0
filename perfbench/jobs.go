package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mission"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
)

// pollInterval is the clients' fixed GET interval while a job runs.
const pollInterval = 2 * time.Millisecond

// Span-propagation headers: the client (or the cluster transport
// wrapper) names the span a server-side handler span is a child of.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

var schemeNames = []string{"Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C"}

// jobView is the part of a serve View / cluster JobView the clients
// read; Result stays raw so it can be compared byte for byte.
type jobView struct {
	ID         string          `json:"id"`
	State      serve.JobState  `json:"state"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
	ElapsedMS  int64           `json:"elapsed_ms"`
	UnitsDone  int             `json:"units_done"`
	UnitsTotal int             `json:"units_total"`
	CacheHit   bool            `json:"cache_hit"`
}

// httpClient is a closed-loop job client over loopback HTTP.
type httpClient struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newHTTPClient(base string, tr *tracer, conns int) *httpClient {
	return &httpClient{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}, Timeout: time.Minute},
		tr:   tr,
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a job view; the span, when tracing,
// is an http-layer child of parent.
func (c *httpClient) do(method, path string, body []byte, op string, parent int64, name string) (jobView, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return jobView{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(hdrOp, op)
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobView{}, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.add(span{ID: id, Parent: parent, Op: op, Layer: "http", Name: name}, t0, time.Now())
	}
	if err != nil {
		return jobView{}, resp.StatusCode, err
	}
	var v jobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &v); err != nil {
			return jobView{}, resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return v, resp.StatusCode, nil
}

// runJob submits spec and polls until a terminal state, filling o's
// timings. It returns the terminal view.
func (c *httpClient) runJob(o *opRecord, spec serve.JobSpec, root int64) (jobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobView{}, err
	}
	op := o.key.id()
	t0 := time.Now()
	v, code, err := c.do(http.MethodPost, "/v1/jobs", body, op, root, "http.submit")
	o.submitMS = float64(time.Since(t0)) / 1e6
	switch {
	case err != nil:
		return v, err
	case code == http.StatusServiceUnavailable:
		return v, fmt.Errorf("shed with 503")
	case code != http.StatusAccepted:
		return v, fmt.Errorf("submit: HTTP %d", code)
	}
	for !v.State.Terminal() {
		time.Sleep(pollInterval)
		id := v.ID
		v, code, err = c.do(http.MethodGet, "/v1/jobs/"+id, nil, op, root, "http.poll")
		if err != nil {
			return v, err
		}
		if code != http.StatusOK {
			return v, fmt.Errorf("poll %s: HTTP %d", id, code)
		}
	}
	if v.State != serve.StateDone {
		return v, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return v, nil
}

// compactJSON is the canonical byte form of a JSON result: the servers
// indent their responses, the references marshal compactly.
func compactJSON(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// gridCells counts a grid job's cells.
func gridCells(table string) (int, experiment.Spec, error) {
	spec, err := experiment.TableByID(table)
	if err != nil {
		return 0, spec, err
	}
	return len(spec.Us) * len(spec.Lambdas) * len(spec.Schemes()), spec, nil
}

// checkGrid checks a grid result's structure and rep ledger: the
// requested reps, every row and cell present and done. It returns the
// reps the job computed and the decoded result.
func checkGrid(spec serve.JobSpec, raw []byte) (int64, serve.GridResult, error) {
	var g serve.GridResult
	cells, tspec, err := gridCells(spec.Table)
	if err != nil {
		return 0, g, err
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return 0, g, fmt.Errorf("decode grid result: %w", err)
	}
	if g.Table != spec.Table || g.Reps != spec.Reps || len(g.Rows) != len(tspec.Us)*len(tspec.Lambdas) {
		return 0, g, fmt.Errorf("grid %s: result shape table=%s reps=%d rows=%d", spec.Table, g.Table, g.Reps, len(g.Rows))
	}
	done := 0
	for _, r := range g.Rows {
		if len(r.Cells) != len(tspec.Schemes()) {
			return 0, g, fmt.Errorf("grid %s: row U=%v λ=%v has %d cells", spec.Table, r.U, r.Lambda, len(r.Cells))
		}
		for _, c := range r.Cells {
			if c.Done {
				done++
			}
		}
	}
	if done != cells {
		return 0, g, fmt.Errorf("grid %s: %d of %d cells done", spec.Table, done, cells)
	}
	return int64(cells) * int64(spec.Reps), g, nil
}

// gridJobCells lists a checked grid job's cells for the replay, each
// with the cell the job reported and the shard size its executor used.
func gridJobCells(spec serve.JobSpec, g serve.GridResult, shard int) []cellRef {
	tspec, err := experiment.TableByID(spec.Table)
	if err != nil {
		return nil
	}
	schemes := tspec.Schemes()
	var out []cellRef
	row := 0
	for _, u := range tspec.Us {
		for _, lam := range tspec.Lambdas {
			for ci, s := range schemes {
				c := g.Rows[row].Cells[ci]
				out = append(out, cellRef{
					spec: tspec, scheme: s, u: u, lambda: lam, base: spec.Seed, reps: spec.Reps, shard: shard,
					want:   []float64{float64(c.P), float64(c.PCI), float64(c.E), float64(c.ECI), float64(c.SDC)},
					fields: gridFields,
				})
			}
			row++
		}
	}
	return out
}

// gridFields is a cell summary as the services render it in a grid
// result: NaN and infinities become JSON null, which decodes as 0.
func gridFields(s stats.Summary) []float64 {
	out := []float64{s.P, s.PCI, s.E, s.ECI, s.SDC}
	for i, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			out[i] = 0
		}
	}
	return out
}

// jobReference recomputes a job's result directly: grid jobs through
// experiment.Runner, single jobs through the scheme, mission jobs
// through mission.Run — each rendered as the service renders it.
func jobReference(op *opRecord) ([]byte, error) {
	spec := op.input.(serve.JobSpec)
	var v any
	switch spec.Kind {
	case serve.JobGrid:
		tspec, err := experiment.TableByID(spec.Table)
		if err != nil {
			return nil, err
		}
		tbl, err := experiment.Runner{Reps: spec.Reps, Seed: spec.Seed, Workers: 1}.RunTable(tspec)
		if err != nil {
			return nil, err
		}
		v = serve.GridResultFromTable(tbl)
	case serve.JobSingle:
		s, p, err := singleSetup(spec)
		if err != nil {
			return nil, err
		}
		res := s.Run(p, rng.New(spec.Seed))
		v = serve.SingleResult{
			Scheme: s.Name(), Completed: res.Completed, Reason: string(res.Reason),
			Time: res.Time, Energy: res.Energy,
			TimeBits: math.Float64bits(res.Time), EnergyBits: math.Float64bits(res.Energy),
			Faults: res.Faults, Detections: res.Detections,
			CSCPs: res.CSCPs, Subs: res.SubCheckpoints, Switches: res.Switches,
		}
	case serve.JobMission:
		s, p, err := singleSetup(spec)
		if err != nil {
			return nil, err
		}
		rep, err := mission.Run(mission.Config{Frame: p, Scheme: s, BatteryCapacity: spec.Battery, MaxFrames: spec.Frames}, spec.Seed)
		if err != nil {
			return nil, err
		}
		mr := serve.MissionResult{
			Scheme: s.Name(), Reason: string(rep.Reason), Frames: rep.Frames, Misses: rep.Misses,
			WrongFrames: rep.WrongFrames, Degraded: rep.DegradedFrames,
		}
		// The float fields have an unexported NaN-as-null type.
		rv := reflect.ValueOf(&mr).Elem()
		rv.FieldByName("EnergyUsed").SetFloat(rep.EnergyUsed)
		rv.FieldByName("FrameE").SetFloat(rep.FrameEnergy.E)
		rv.FieldByName("FinalCharge").SetFloat(rep.FinalCharge)
		v = mr
	default:
		return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return compactJSON(raw)
}

// singleSetup resolves a single/mission spec the way the service does:
// baselines at f1, the task's utilisation against f1, deadline D.
func singleSetup(spec serve.JobSpec) (sim.Scheme, sim.Params, error) {
	var s sim.Scheme
	switch spec.Scheme {
	case "Poisson":
		s = core.NewPoissonScheme(1)
	case "k-f-t":
		s = core.NewKFTScheme(1)
	case "A_D":
		s = core.NewADTDVS()
	case "A_D_S":
		s = core.NewAdaptDVSSCP()
	case "A_D_C":
		s = core.NewAdaptDVSCCP()
	default:
		return nil, sim.Params{}, fmt.Errorf("unknown scheme %q", spec.Scheme)
	}
	tk, err := task.FromUtilization("serve", spec.U, 1, experiment.Deadline, spec.K)
	if err != nil {
		return nil, sim.Params{}, err
	}
	costs := checkpoint.SCPSetting()
	if spec.Setting == "ccp" {
		costs = checkpoint.CCPSetting()
	}
	return s, sim.Params{Task: tk, Costs: costs, Lambda: spec.Lambda}, nil
}
