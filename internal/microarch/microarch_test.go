package microarch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"latticesim/internal/core"
)

func TestRegisterAndPhase(t *testing.T) {
	e := NewEngine(4)
	a, err := e.Register(1900)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Register(2110)
	if err != nil {
		t.Fatal(err)
	}
	e.Tick(2000)
	pa, err := e.Phase(a)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 100 { // 2000 mod 1900
		t.Fatalf("phase a = %d, want 100", pa)
	}
	pb, _ := e.Phase(b)
	if pb != 2000 {
		t.Fatalf("phase b = %d, want 2000", pb)
	}
	st, err := e.State(a)
	if err != nil {
		t.Fatal(err)
	}
	if st.CycleNs != 1900 || st.ElapsedNs != 100 {
		t.Fatalf("state a = %+v", st)
	}
}

func TestRoundCounting(t *testing.T) {
	e := NewEngine(1)
	id, _ := e.Register(1000)
	e.Tick(5500)
	st, _ := e.State(id)
	if st.ElapsedNs != 500 {
		t.Fatalf("elapsed = %d", st.ElapsedNs)
	}
}

func TestTableFull(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.Register(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(1000); err == nil {
		t.Fatal("expected table-full error")
	}
}

func TestCounterWidthEnforced(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.Register(1 << 20); err == nil {
		t.Fatal("cycle beyond the 12-bit counter must be rejected")
	}
}

func TestBadIDs(t *testing.T) {
	e := NewEngine(2)
	if _, err := e.Phase(0); err == nil {
		t.Fatal("phase of unregistered patch must error")
	}
	if _, err := e.State(-1); err == nil {
		t.Fatal("negative id must error")
	}
}

func TestPlanSyncAlignment(t *testing.T) {
	e := NewEngine(4)
	ids := []int{}
	for _, cyc := range []int64{1000, 1325, 1150} {
		id, err := e.Register(cyc)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.Tick(3777)
	for _, pol := range []core.Policy{core.Passive, core.Active, core.Hybrid} {
		sched, err := e.PlanSync(ids, pol, 400, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Pairs) != len(ids)-1 {
			t.Fatalf("%v: %d pairs", pol, len(sched.Pairs))
		}
		worst, err := e.VerifySchedule(sched)
		if err != nil {
			t.Fatal(err)
		}
		if worst != 0 {
			t.Fatalf("%v: residual misalignment %dns", pol, worst)
		}
	}
}

// TestPlanSyncProperty: any tick offset still yields exactly aligned
// schedules under the runtime Hybrid-with-Active-fallback selection.
func TestPlanSyncProperty(t *testing.T) {
	f := func(ticks uint32, nPatches uint8) bool {
		k := int(nPatches%6) + 2
		e := NewEngine(k)
		cycles := []int64{1000, 1150, 1325, 1725, 2000}
		ids := make([]int, k)
		for i := 0; i < k; i++ {
			id, err := e.Register(cycles[i%len(cycles)])
			if err != nil {
				return false
			}
			ids[i] = id
		}
		e.Tick(int64(ticks % 100000))
		sched, err := e.PlanSync(ids, core.Hybrid, 400, 0)
		if err != nil {
			return false
		}
		worst, err := e.VerifySchedule(sched)
		return err == nil && worst == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSyncRejectsUnknownPatch(t *testing.T) {
	e := NewEngine(2)
	id, _ := e.Register(1000)
	if _, err := e.PlanSync([]int{id, id + 1}, core.Active, 0, 0); err == nil {
		t.Fatal("expected error for unknown patch id")
	}
}
