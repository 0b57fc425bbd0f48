// Package serve is wallclock analyzer testdata: it sits at an import
// path ending in internal/serve, so the default scope applies — the
// serving layer times operations only through its injectable clock.
package serve

import "time"

// measure is the shape of the mistake the scope entry guards against:
// timing an operation directly instead of through the runner's
// injectable now/since fields.
func measure(op func()) time.Duration {
	start := time.Now() // want `\[wallclock\] time\.Now in result-producing package`
	op()
	return time.Since(start) // want `\[wallclock\] time\.Since in result-producing package`
}

// injectableDefault mirrors serve.NewRunner: the production clock is
// fine when documented as the injectable default.
func injectableDefault() func() time.Time {
	//lint:gdb-allow wallclock testdata exercising the directive on the next line
	return time.Now
}

// pacing consumes durations without observing the clock; open-loop
// pacing via sleep is legitimate and must stay silent.
func pacing(d time.Duration) {
	time.Sleep(d)
}
