package explore

import "testing"

// FuzzParseExploration drives the exploration parser with hostile input
// (the daemon feeds it untrusted request bodies), pinning three
// properties:
//
//  1. Parse never panics.
//  2. Every spec Parse accepts hashes without error.
//  3. Re-parsing the same bytes gives the same hash — the content
//     address the service keys exploration jobs by.
//
// The seeds are the three curated explorations with their prose fields
// cut, so each stays a few hundred bytes: the fuzzer's minimiser is
// quadratic in seed length and stalls on kilobyte seeds.
func FuzzParseExploration(f *testing.F) {
	f.Add([]byte(`{"name":"eq4","base":{"name":"eq4","model":"taskburst","storage":{"c":"6m"},"source":{"name":"const-power","params":{"p":"2m"}},"params":{"taskenergy":"6m","vfloor":1.8,"vmax":5.5,"eta":0.7},"duration":120,"dt":"1m"},"strategy":{"kind":"grid","axes":[{"param":"c","values":["1m","6m","12m"]}]},"aggregators":[{"kind":"topk","k":3,"metric":"first_fire","goal":"min"},{"kind":"topk","k":3,"metric":"events","goal":"max"}]}`))
	f.Add([]byte(`{"name":"eq5","base":{"name":"eq5","workload":"fft64","storage":{"c":"10u"},"source":{"name":"square","params":{"ontime":0.025,"offtime":0.025}},"duration":3.0},"strategy":{"kind":"bisect","param":"source.ontime","lo":0.0125,"hi":0.1,"tolerance":"0.5m","objective":"energy_per_op","a":{"name":"qr","set":[{"param":"runtime","name":"quickrecall"}]},"b":{"name":"hib","set":[{"param":"runtime","name":"hibernus"}]}}}`))
	f.Add([]byte(`{"name":"fig5","base":{"name":"fig5","model":"mpsoc","source":{"name":"pv","params":{"basecurrent":0.35,"peakcurrent":1.7,"opvoltage":5.0}},"duration":86400,"dt":60},"strategy":{"kind":"grid","axes":[{"param":"model.scale","values":[0.5,1.0,2.0]},{"param":"dt","values":[30,300]}]},"aggregators":[{"kind":"pareto","metrics":["used_w","mean_fps"],"senses":["min","max"]}]}`))
	f.Add([]byte(`{"name":"x","base":{},"strategy":{"kind":"refine"}}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		hash, err := s.Hash()
		if err != nil {
			t.Fatalf("accepted spec failed to hash: %v", err)
		}
		s2, err := Parse(data)
		if err != nil {
			t.Fatalf("same bytes parsed once and then failed: %v", err)
		}
		hash2, err := s2.Hash()
		if err != nil || hash2 != hash {
			t.Fatalf("hash changed across re-parse: %s -> %s (err %v)", hash, hash2, err)
		}
	})
}
