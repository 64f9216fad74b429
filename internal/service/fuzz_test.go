package service

import (
	"math/rand"
	"testing"
)

// fuzzProfiles is the canonical Table 1 order the normalizer re-imposes.
var fuzzProfiles = []string{"Old", "Sim1", "Sim2", "NoAction", "Headless"}

// FuzzSpecCanonical pins the service's spec identity: the canonicalized
// cache key must be invariant under every spelling of the same experiment
// — profile reordering and duplication, "off" vs "" fault profiles,
// "jsonl" vs "" dataset formats, and any analysis worker count (workers
// never change the result bytes). It also pins that normalization is
// idempotent and that a valid spec never changes meaning when
// re-canonicalized.
func FuzzSpecCanonical(f *testing.F) {
	f.Add(int64(1), 10, 4, 2, 0, false, uint8(0b11111), uint8(0), 0, 0, int64(0), false, int64(7))
	f.Add(int64(42), 50, 10, 3, 2, true, uint8(0b00101), uint8(1), 4, 2, int64(9), true, int64(3))
	f.Add(int64(-3), 0, 0, 0, 0, false, uint8(0), uint8(2), 1, 1, int64(0), false, int64(1))
	f.Add(int64(7), 2000, 100, 1, 1, true, uint8(0b10000), uint8(3), 16, 0, int64(5), true, int64(99))

	f.Fuzz(func(t *testing.T, seed int64, sites, pages, instances, epoch int,
		stateful bool, profileMask, faultIdx uint8, shards, shard int, shardSeed int64,
		colFormat bool, permSeed int64) {

		limits := Limits{MaxSites: 2000, MaxPagesPerSite: 100, MaxShards: 16}

		var profiles []string
		for i, name := range fuzzProfiles {
			if profileMask&(1<<i) != 0 {
				profiles = append(profiles, name)
			}
		}
		faultNames := []string{"", "off", "light", "heavy"}
		fault := faultNames[int(faultIdx)%len(faultNames)]
		format := ""
		if colFormat {
			format = "col"
		}
		specA := JobSpec{
			Seed: seed, Sites: sites, PagesPerSite: pages, Instances: instances,
			Epoch: epoch, Stateful: stateful, Profiles: profiles,
			FaultProfile: fault, Shards: shards, Shard: shard, ShardSeed: shardSeed,
			DatasetFormat: format, Workers: 2, TraceSample: 1,
		}

		// specB means the identical experiment spelled differently:
		// shuffled and duplicated profiles, the alternate spelling of the
		// default fault/format, and a different analysis worker count.
		specB := specA
		if len(profiles) > 0 {
			shuffled := append([]string(nil), profiles...)
			rand.New(rand.NewSource(permSeed)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			specB.Profiles = append(shuffled, shuffled[0])
		}
		switch fault {
		case "":
			specB.FaultProfile = "off"
		case "off":
			specB.FaultProfile = ""
		}
		if format == "" {
			specB.DatasetFormat = "jsonl"
		}
		specB.Workers = specA.Workers + 7

		normA, errA := specA.normalize(limits)
		normB, errB := specB.normalize(limits)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("validity disagrees across spellings: errA=%v errB=%v", errA, errB)
		}
		if errA != nil {
			return
		}
		keyA, keyB := normA.cacheKey(), normB.cacheKey()
		if keyA != keyB {
			t.Fatalf("cache key differs across spellings of one experiment:\nA: %s\nB: %s", keyA, keyB)
		}
		// Idempotence: canonicalizing a canonical spec is the identity.
		norm2, err := normA.normalize(limits)
		if err != nil {
			t.Fatalf("re-canonicalizing a valid spec failed: %v", err)
		}
		if key2 := norm2.cacheKey(); key2 != keyA {
			t.Fatalf("canonicalization not idempotent:\nfirst:  %s\nsecond: %s", keyA, key2)
		}
		if len(norm2.Profiles) != len(normB.Profiles) {
			t.Fatalf("profile sets diverged: %v vs %v", norm2.Profiles, normB.Profiles)
		}
	})
}
