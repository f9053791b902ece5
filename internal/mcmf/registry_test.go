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
				if len(EngineNames()) < 3 {
					errs <- fmt.Errorf("EngineNames() lost the built-ins: %v", EngineNames())
					return
				}
				if !ValidEngine("dial") {
					errs <- fmt.Errorf("ValidEngine(dial) = false mid-registration")
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
