package main

// golden holds the committed fingerprints of the default seed's runs
// (and, for the sweep, of each figure's CSV), by workload and unit. A
// run that differs is reported as drift on standard error; one with no
// entry here has its fingerprint printed so it can be added.
var golden = map[string]map[string]string{
	"headline": {"ewmac/seed=1": "e8d303d54cacdcf8"},
	"dense":    {"ewmac/seed=1": "296da44dc7e6948d"},
	"chaos-verify": {
		"ewmac/seed=1":  "cb64724a4075c096",
		"sfama/seed=1":  "9e2a1bbedbcac8c4",
		"ropa/seed=1":   "919afb35eaecd4c4",
		"csmac/seed=1":  "cf33804c80938667",
		"saloha/seed=1": "42c2322bbcc99997",
	},
	"sweep": {
		"fig6/seed=1":        "7ac49ec01377237e",
		"fig7/seed=1":        "d207a1377d8dcf39",
		"fig8/seed=1":        "868a2d717b3e000e",
		"fig9a/seed=1":       "739d17b2a4d11774",
		"fig9b/seed=1":       "165232b5a1749c92",
		"fig10a/seed=1":      "a9bef2445ef1a0f9",
		"fig10b/seed=1":      "3f29f0675e85066a",
		"fig11/seed=1":       "840816393d08ce27",
		"ext-pktsize/seed=1": "aa90cbaf7505e231",
	},
}
