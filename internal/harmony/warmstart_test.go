package harmony

import (
	"encoding/json"
	"testing"
	"time"

	"paratune/internal/core"
	"paratune/internal/event"
	"paratune/internal/feddb"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// driveCounting runs one noiseless client until the session converges,
// returning how many reports the server accepted. Deterministic measurements
// make the optimiser trajectory reproducible across servers, which is what
// the warm-start contract relies on.
func driveCounting(t *testing.T, srv *Server, name string, f objective.Function) int {
	t.Helper()
	reports := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		fr, err := srv.Fetch(name)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Converged {
			return reports
		}
		if fr.Tag == 0 {
			// Between batches; yield so the run goroutine can advance.
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if err := srv.Report(name, fr.Tag, f.Eval(fr.Point)); err == nil {
			reports++
		}
	}
	t.Fatal("session did not converge before the deadline")
	return 0
}

// The cross-restart warm-start contract: a second server sharing the first
// server's measurement store answers every candidate from it, so the session
// converges to the bit-identical best without a single client report.
func TestWarmStartAcrossServers(t *testing.T) {
	db := measuredb.NewMemory(measuredb.Options{})
	sp, err := space.New(gs2Params()...)
	if err != nil {
		t.Fatal(err)
	}
	f := objective.NewSphere(sp, space.Point{32, 16, 8}, 1)

	srv1 := NewServer(ServerOptions{Estimator: mustMinOfK(t, 2), DB: db})
	if err := srv1.Register("app", gs2Params()); err != nil {
		t.Fatal(err)
	}
	cold := driveCounting(t, srv1, "app", f)
	srv1.Close()
	if cold == 0 {
		t.Fatal("cold session accepted no reports")
	}
	if configs, obs := db.Stats(); configs == 0 || obs == 0 {
		t.Fatalf("store after cold session: %d configs, %d observations", configs, obs)
	}

	rec := &event.Memory{}
	srv2 := NewServer(ServerOptions{Estimator: mustMinOfK(t, 2), DB: db, Recorder: rec})
	defer srv2.Close()
	if err := srv2.Register("app", gs2Params()); err != nil {
		t.Fatal(err)
	}
	warm := driveCounting(t, srv2, "app", f)
	if warm != 0 {
		t.Fatalf("warm session accepted %d reports, want golden 0 (every candidate pre-resolved)", warm)
	}
	if rec.Count(event.KindDBHit) == 0 {
		t.Fatal("warm session recorded no db_hit")
	}
	if n := rec.Count(event.KindDBMiss); n != 0 {
		t.Fatalf("warm session recorded %d db_miss, want 0", n)
	}

	b1, v1, _, err := srv1.Best("app")
	if err != nil {
		t.Fatal(err)
	}
	b2, v2, conv, err := srv2.Best("app")
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Fatal("warm session not converged")
	}
	if !b1.Equal(b2) {
		t.Fatalf("best diverged across servers: %v vs %v", b1, b2)
	}
	if v1 != v2 {
		t.Fatalf("best value diverged: %g vs %g", v1, v2)
	}
}

// A store bound to one space rejects a session over a different one: the
// database is per-application, and a configuration key only means the same
// configuration within one space, so silently mixing spaces would serve one
// application's measurements as another's.
func TestServerRejectsMismatchedDBSpace(t *testing.T) {
	db := measuredb.NewMemory(measuredb.Options{})
	srv := NewServer(ServerOptions{DB: db})
	defer srv.Close()
	if err := srv.Register("a", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("b", []space.Parameter{space.IntParam("x", 0, 9)}); err == nil {
		t.Fatal("second session over a different space should be rejected")
	}
}

// fixedBatch evaluates one fixed batch in Init and is converged from then
// on, so a session's warm-start lookups are exactly that batch's points.
type fixedBatch struct {
	pts  []space.Point
	best space.Point
	val  float64
}

func (a *fixedBatch) Init(ev core.Evaluator) error {
	vals, err := ev.Eval(a.pts)
	if err != nil {
		return err
	}
	for i, v := range vals {
		if a.best == nil || v < a.val {
			a.best, a.val = a.pts[i], v
		}
	}
	return nil
}

func (a *fixedBatch) Step(core.Evaluator) (core.StepInfo, error) {
	return core.StepInfo{Kind: core.StepConverged, Best: a.best, BestValue: a.val}, nil
}

func (a *fixedBatch) Best() (space.Point, float64) { return a.best, a.val }
func (a *fixedBatch) Converged() bool              { return a.best != nil }
func (a *fixedBatch) String() string               { return "fixed-batch" }

// A warm harmony session's db_hit/db_miss payloads are pinned exactly, on
// the raw-store path and through the feddb read-through cache: a resolved
// local configuration hits untagged, one backed by an observation applied
// from another origin hits with source "federated", and under-measured
// configurations miss with their stored count.
func TestWarmSessionDBEventPayloads(t *testing.T) {
	const want = `{"session":"warm","config":"1","value":4,"count":2}
{"session":"warm","config":"2","value":3,"count":2,"source":"federated"}
{"session":"warm","config":"3","count":1}
{"session":"warm","config":"4","count":0}
`
	params := []space.Parameter{space.IntParam("x", 0, 9)}
	for _, withCache := range []bool{false, true} {
		name := "store"
		if withCache {
			name = "cache"
		}
		t.Run(name, func(t *testing.T) {
			est := mustMinOfK(t, 2)
			db := measuredb.NewMemory(measuredb.Options{Origin: "local"})
			db.Observe(space.Point{1}, 5)
			db.Observe(space.Point{1}, 4)
			db.Observe(space.Point{2}, 7)
			if _, err := db.Apply(measuredb.Frame{Origin: "peer", Seq: 1, Point: space.Point{2}, Value: 3}); err != nil {
				t.Fatal(err)
			}
			db.Observe(space.Point{3}, 6)

			rec := &event.Memory{}
			opts := ServerOptions{
				Estimator: est,
				DB:        db,
				Recorder:  rec,
				NewAlgorithm: func(*space.Space) (core.Algorithm, error) {
					return &fixedBatch{pts: []space.Point{{1}, {2}, {3}, {4}}}, nil
				},
			}
			var cache *feddb.Cache
			if withCache {
				cache = feddb.NewCache(db, est, est.K(), 0)
				opts.Cache = cache
			}
			srv := NewServer(opts)
			defer srv.Close()
			if err := srv.Register("warm", params); err != nil {
				t.Fatal(err)
			}
			// The two misses are measured by the client, K=2 reports each.
			if n := driveCounting(t, srv, "warm", objective.NewSphere(space.MustNew(params...), space.Point{0}, 1)); n != 4 {
				t.Fatalf("client reports = %d, want 4 (two misses x K=2)", n)
			}

			var got string
			for _, e := range rec.Events() {
				if k := e.EventKind(); k != event.KindDBHit && k != event.KindDBMiss {
					continue
				}
				line, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				got += string(line) + "\n"
			}
			if got != want {
				t.Fatalf("db events:\n%s\nwant:\n%s", got, want)
			}
			if withCache {
				if st := cache.Stats(); st.Misses != 4 {
					t.Fatalf("cache stats %+v, want 4 lookups through the cache", st)
				}
			}
		})
	}
}
