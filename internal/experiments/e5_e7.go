package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"vdce/internal/afg"
	"vdce/internal/control"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// E5Monitoring reproduces the Resource Controller pipeline of Fig. 4 and
// quantifies the Group Manager's significant-change filter: for each
// threshold, how many monitor samples reach the Site Manager, and how
// stale the resource-performance database gets (mean absolute load error
// versus ground truth at the end of the run).
func E5Monitoring(thresholds []float64, hosts, rounds int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Group Manager change filtering (%d hosts, %d monitor rounds)", hosts, rounds),
		Header: []string{"threshold", "forwarded", "forwarded %", "mean |db err|"},
	}
	for _, thr := range thresholds {
		tb, err := testbed.Build(testbed.Config{
			Sites: 1, HostsPerGroup: hosts, Seed: seed, BaseLoadMax: 0.6, LoadSigma: 0.04,
		})
		if err != nil {
			return nil, err
		}
		site := tb.Sites[0]
		local := core.NewLocalSite(site.Repo)
		sm, err := control.StartSiteManager(local, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		gm := control.NewGroupManager(site.Name, "g0", site.Hosts, sm, time.Hour)
		gm.Threshold = thr
		gm.MemThreshold = 1 << 40 // isolate the load trigger

		for r := 0; r < rounds; r++ {
			now := time.Unix(int64(r), 0)
			for _, h := range site.Hosts {
				s := h.Sample(now)
				if err := gm.Ingest(h.Name, s); err != nil {
					sm.Close()
					return nil, err
				}
			}
		}
		// Database staleness: repo load vs live host load.
		var errSum float64
		for _, h := range site.Hosts {
			rec, err := site.Repo.Resources.Host(h.Name)
			if err != nil {
				sm.Close()
				return nil, err
			}
			errSum += math.Abs(rec.CPULoad - h.CurrentLoad())
		}
		recv, fwd, _ := gm.Stats()
		sm.Close()
		t.Add(thr, fwd, fmt.Sprintf("%.1f", float64(fwd)/float64(recv)*100),
			fmt.Sprintf("%.4f", errSum/float64(hosts)))
	}
	t.Note("higher thresholds cut Site Manager traffic at the cost of database staleness")
	return t, nil
}

// E6FailureDetect reproduces §4.1's echo-based failure detection:
// detection latency as a function of the echo period. Time is modeled
// in virtual rounds (failures occur uniformly inside an echo interval),
// so the measured latency distribution is exact rather than
// sleep-dependent; the database transition is verified on every trial.
func E6FailureDetect(periods []time.Duration, trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Echo-based failure detection latency",
		Header: []string{"echo period", "mean latency", "max latency", "detected"},
	}
	for _, period := range periods {
		tb, err := testbed.Build(testbed.Config{Sites: 1, HostsPerGroup: 8, Seed: seed})
		if err != nil {
			return nil, err
		}
		site := tb.Sites[0]
		local := core.NewLocalSite(site.Repo)
		sm, err := control.StartSiteManager(local, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		gm := control.NewGroupManager(site.Name, "g0", site.Hosts, sm, time.Hour)
		var latSum, latMax time.Duration
		detected := 0
		rng := newRng(seed)
		for trial := 0; trial < trials; trial++ {
			victim := site.Hosts[trial%len(site.Hosts)]
			// The failure lands uniformly inside an echo interval.
			offset := time.Duration(rng.Int63n(int64(period)))
			failAt := time.Unix(int64(trial)*1000, 0).Add(offset)
			victim.Fail()
			// Next echo rounds happen at interval boundaries after the
			// trial epoch.
			var detectAt time.Time
			for r := 1; r <= 3; r++ {
				roundTime := time.Unix(int64(trial)*1000, 0).Add(time.Duration(r) * period)
				if err := gm.EchoRound(roundTime); err != nil {
					sm.Close()
					return nil, err
				}
				if gm.Down(victim.Name) {
					detectAt = roundTime
					break
				}
			}
			if !detectAt.IsZero() {
				detected++
				lat := detectAt.Sub(failAt)
				latSum += lat
				if lat > latMax {
					latMax = lat
				}
				// The repository must agree (Fig. 4 step 3).
				rec, err := site.Repo.Resources.Host(victim.Name)
				if err != nil {
					sm.Close()
					return nil, err
				}
				if rec.Status != "down" {
					sm.Close()
					return nil, fmt.Errorf("E6: repo missed the failure")
				}
			}
			victim.Recover()
			if err := gm.EchoRound(time.Unix(int64(trial)*1000+500, 0)); err != nil {
				sm.Close()
				return nil, err
			}
		}
		sm.Close()
		mean := time.Duration(0)
		if detected > 0 {
			mean = latSum / time.Duration(detected)
		}
		t.Add(period.String(), mean.String(), latMax.String(), fmt.Sprintf("%d/%d", detected, trials))
	}
	t.Note("latency ≈ echo period − uniform failure offset; mean ≈ period/2, max ≤ period")
	return t, nil
}

// E7Reschedule reproduces §4.1's Application Controller threshold: a
// contention burst lands on the host running a chain of tasks; with
// rescheduling the work moves away, without it the run drags through the
// overload. Real execution with real TCP channels.
func E7Reschedule(spinMs int, contention float64) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("Load-threshold rescheduling under a %.0f%% contention burst", contention*100),
		Header: []string{"mode", "makespan", "reschedules", "final host moved"},
	}
	run := func(withReschedule bool) (time.Duration, int, bool, error) {
		tb, err := testbed.Build(testbed.Config{
			Sites: 1, HostsPerGroup: 2, Seed: 31,
			SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.01, LoadSigma: 0.0001,
		})
		if err != nil {
			return 0, 0, false, err
		}
		site := tb.Sites[0]
		names := []string{site.Hosts[0].Name, site.Hosts[1].Name}
		if err := tasklib.Default().InstallInto(site.Repo, names); err != nil {
			return 0, 0, false, err
		}
		local := core.NewLocalSite(site.Repo)
		engine := &exec.Engine{
			Reg: tasklib.Default(), TB: tb,
			LoadCheckPeriod: time.Millisecond,
		}
		defer engine.Close()
		if withReschedule {
			engine.LoadThreshold = 0.7
			engine.Reschedule = exec.NewRescheduler([]*core.LocalSite{local})
		} else {
			// Threshold disabled: the task stays on the overloaded host.
			engine.LoadThreshold = 0
			// Dilation makes the overload actually slow the task down.
			engine.DilationScale = 1
		}
		g := afg.NewGraph("burst")
		id := g.AddTask("Spin", "util", 0, 1)
		if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": fmt.Sprint(spinMs)}}); err != nil {
			return 0, 0, false, err
		}
		table := &core.AllocationTable{App: "burst", Entries: []core.Placement{{
			Task: id, TaskName: "Spin", Site: site.Name,
			Hosts: []string{site.Hosts[0].Name}, Predicted: time.Duration(spinMs) * time.Millisecond,
		}}}
		// Contention burst arrives immediately.
		site.Hosts[0].InjectLoad(contention)
		res, err := engine.Execute(context.Background(), g, table)
		if err != nil {
			return 0, 0, false, err
		}
		last := res.Runs[len(res.Runs)-1]
		return res.Makespan, res.Rescheduled, last.Host == site.Hosts[1].Name, nil
	}

	withMs, withCount, moved, err := run(true)
	if err != nil {
		return nil, err
	}
	withoutMs, withoutCount, _, err := run(false)
	if err != nil {
		return nil, err
	}
	t.Add("reschedule on", withMs.Round(time.Millisecond).String(), withCount, moved)
	t.Add("reschedule off", withoutMs.Round(time.Millisecond).String(), withoutCount, false)
	t.Note("rescheduling moves the task off the overloaded host; disabled runs pay the dilated overload")
	return t, nil
}
