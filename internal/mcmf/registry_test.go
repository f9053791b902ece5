// Registry concurrency: Register runs at test runtime (internal/fault
// registers its wrapper engine when a test binary imports it) while
// server sessions instantiate engines concurrently, so the registry
// map must synchronize reads against writes.  This test drives both
// sides at once and is meaningful under -race (it passes trivially
// without it).
package mcmf

import (
	"fmt"
	"sync"
	"testing"
)

// unregister removes a backend from the registry: the race
// test registers throwaway names and must not leave them behind for
// the conformance suites (which enumerate EngineNames dynamically).
func unregister(name string) {
	engineMu.Lock()
	defer engineMu.Unlock()
	delete(engineFactories, name)
}

func TestRegistryConcurrentAccess(t *testing.T) {
	const (
		registrars = 4
		readers    = 4
		perWorker  = 50
	)
	names := make([]string, 0, registrars*perWorker)
	for w := 0; w < registrars; w++ {
		for i := 0; i < perWorker; i++ {
			names = append(names, fmt.Sprintf("racetest-%d-%d", w, i))
		}
	}
	// The throwaway names must not leak into the process-global
	// registry: the conformance suites enumerate EngineNames
	// dynamically and would run full equivalence rounds on every
	// leftover entry.
	defer func() {
		for _, n := range names {
			unregister(n)
		}
		for _, n := range names {
			if ValidEngine(n) {
				t.Fatalf("throwaway engine %q still registered after cleanup", n)
			}
		}
	}()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < registrars; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				// Factories hand out the reference backend so an
				// instantiated throwaway engine is a real engine.
				Register(fmt.Sprintf("racetest-%d-%d", w, i), func() Engine { return &sspEngine{} })
			}
		}(w)
	}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				// Instantiate a built-in by name while registrations are
				// in flight: this is the server-session path (every new
				// session news up an engine).
				e, err := NewEngine("ssp")
				if err != nil {
					errs <- err
					return
				}
				if e.Name() != "ssp" {
					errs <- fmt.Errorf("NewEngine(ssp).Name() = %q", e.Name())
					return
				}
				// And exercise the enumeration + validation readers.
				if len(EngineNames()) < 2 {
					errs <- fmt.Errorf("EngineNames() lost the built-ins: %v", EngineNames())
					return
				}
				if !ValidEngine("costscaling") {
					errs <- fmt.Errorf("ValidEngine(costscaling) = false mid-registration")
					return
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, n := range names {
		if !ValidEngine(n) {
			t.Fatalf("engine %q lost after concurrent registration", n)
		}
	}
}

// TestEngineNames: the registry lists the two engines, and the
// defaulting names and the deprecated "dial" select ssp without being
// listed.
func TestEngineNames(t *testing.T) {
	if got := fmt.Sprint(EngineNames()); got != "[costscaling ssp]" {
		t.Fatalf("EngineNames() = %s, want [costscaling ssp]", got)
	}
	for name, want := range map[string]string{"": "ssp", "auto": "ssp", "dial": "ssp", "ssp": "ssp", "costscaling": "costscaling"} {
		if got, ok := CanonicalEngine(name); got != want || !ok {
			t.Fatalf("CanonicalEngine(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
	if _, ok := CanonicalEngine("heap"); ok || ValidEngine("heap") {
		t.Fatal(`"heap" accepted as an engine name`)
	}
}
