package engine

import (
	"encoding/json"
	"testing"
)

// FuzzJobSpecJSON feeds arbitrary bytes through the cqfitd wire path:
// JSON decode into a JobSpec, then Build. Malformed input must produce
// an error, never a panic or an over-read; a spec that builds must be a
// valid job (cqfitd submits it straight to the engine).
func FuzzJobSpecJSON(f *testing.F) {
	f.Add([]byte(`{"schema":"R/2,P/1","arity":1,"kind":"cq","task":"construct",` +
		`"pos":["R(a,b). R(b,c) @ a"],"neg":["P(u) @ u"]}`))
	f.Add([]byte(`{"schema":"R/2","kind":"tree","task":"verify","q":"q() :- R(x,y)"}`))
	f.Add([]byte(`{"schema":"R/-1"}`))
	f.Add([]byte(`{"schema":"P/1,R/6000000"}`))
	f.Add([]byte(`{"schema":"R/2","arity":-3,"max_atoms":-1,"timeout_ms":-5}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		job, err := spec.Build()
		if err != nil {
			return
		}
		if err := job.Validate(); err != nil {
			t.Fatalf("Build returned an invalid job: %v", err)
		}
		// The fingerprint paths must hold for anything Build accepts
		// (they hash examples and schema unconditionally).
		if job.flightKey(false) == job.storeKey(false) && job.Timeout != 0 {
			t.Fatalf("timeout not folded into the dedup fingerprint")
		}
	})
}
