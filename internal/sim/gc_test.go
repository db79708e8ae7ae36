package sim

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Run never blocks, so it must yield now and then: a goroutine that is
// runnable when Run starts, such as the GC's mark worker, has to get
// the processor long before the next async preemption would hand it
// over. With one P, the goroutine must run within the first few
// thousand events.
func TestRunYieldsToRunnableGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const events, within = 65536, 4096
	e := NewEngine(1)
	var ran atomic.Int64
	var tick func()
	tick = func() {
		if ran.Add(1) < events {
			e.ScheduleIn(time.Microsecond, PriorityMAC, tick)
		}
	}
	e.ScheduleIn(0, PriorityMAC, tick)
	seen := make(chan int64, 1)
	go func() { seen <- ran.Load() }()
	if n := e.Run(); n != events {
		t.Fatalf("ran %d events, want %d", n, events)
	}
	if at := <-seen; at >= within {
		t.Errorf("runnable goroutine first ran after event %d, want before %d", at, within)
	}
}

// The heap holds no pointer, so sifting it needs no write barrier and
// the GC never scans it.
func TestHeapEntryHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.String:
			t.Errorf("%s is a %v, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(entry{}), "entry")
}
