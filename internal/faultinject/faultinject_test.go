package faultinject

import (
	"errors"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Fire("anywhere"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if in.Fired("anywhere") != 0 || in.Seen("anywhere") != 0 {
		t.Fatal("nil injector reported activity")
	}
}

func TestErrorFault(t *testing.T) {
	in := New()
	in.Arm("cell.run", Fault{Kind: KindError, Times: 2})
	for i := 1; i <= 2; i++ {
		err := in.Fire("cell.run")
		var inj *InjectedError
		if !errors.As(err, &inj) {
			t.Fatalf("firing %d: err = %v, want *InjectedError", i, err)
		}
		if inj.Site != "cell.run" || inj.N != i {
			t.Fatalf("firing %d: %+v", i, inj)
		}
	}
	// Disarmed after Times firings.
	if err := in.Fire("cell.run"); err != nil {
		t.Fatalf("fault fired past Times: %v", err)
	}
	if got := in.Fired("cell.run"); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if got := in.Seen("cell.run"); got != 3 {
		t.Fatalf("Seen = %d, want 3", got)
	}
	// Unarmed sites never fire.
	if err := in.Fire("other.site"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestPanicFault(t *testing.T) {
	in := New()
	in.Arm("boom", Fault{Kind: KindPanic})
	defer func() {
		r := recover()
		inj, ok := r.(*InjectedError)
		if !ok || inj.Kind != KindPanic || inj.Site != "boom" {
			t.Fatalf("recover() = %v, want *InjectedError at boom", r)
		}
	}()
	in.Fire("boom")
	t.Fatal("armed panic did not fire")
}

func TestArmDefaultsTimesToOne(t *testing.T) {
	in := New()
	in.Arm("once", Fault{Kind: KindError})
	if err := in.Fire("once"); err == nil {
		t.Fatal("fault did not fire")
	}
	if err := in.Fire("once"); err != nil {
		t.Fatalf("Times=0 fault fired twice: %v", err)
	}
}

func TestConcurrentFire(t *testing.T) {
	in := New()
	in.Arm("racy", Fault{Kind: KindError, Times: 10})
	done := make(chan int)
	for g := 0; g < 8; g++ {
		go func() {
			n := 0
			for i := 0; i < 100; i++ {
				if in.Fire("racy") != nil {
					n++
				}
			}
			done <- n
		}()
	}
	total := 0
	for g := 0; g < 8; g++ {
		total += <-done
	}
	if total != 10 {
		t.Fatalf("fault fired %d times, want exactly 10", total)
	}
}
