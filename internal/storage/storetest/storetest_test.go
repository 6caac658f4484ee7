package storetest_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// TestBuildRandomFingerprints pins the graph BuildRandom writes for every
// (seed, vertices, edges) the tree's tests use: a change to the generator
// that moves the rng stream changes these hashes (SHA-256 of
// Fingerprint), and every differential test built on them with it.
func TestBuildRandomFingerprints(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		nv, ne int
		sum    string
	}{
		{1234, 40, 100, "de7c109fb8c6ab89a886dbd72af75b7335f665651e153a3731c1f1f8733aed01"},
		{77, 50, 130, "6d07f1da44c3f2910307596630dcea67e3851344742dafec47ca576183757b6c"},
		{31, 150, 300, "3f2154a242d4ae6e4f3db88224df032ca3b98731772c3a012a90f1a05ea414b4"},
		{4242, 25, 60, "3d0d6a1e32312453078a68f78b3d926189d59573b88a9ba5a7eb921427e6afbe"},
		{7, 50, 120, "404e07abb6465d461870145e981d96882386e5d587771e50a7969438bbe2ec64"},
		{42, 80, 200, "bbdff138546856d4cb9390a95927704d372ee02d49ed8288c9e896607c114bec"},
		{7, 40, 120, "e3a0545f3d04009473b6083b4241cd0bc157c68d4b6628714c4c9a4780a793ec"},
		{5, 30, 90, "116eb57f8bb4916e3f6e2f1a6d38b2e2e3ec220fac860c49217b264199b3b3a1"},
		{11, 300, 900, "423e6874649e28708a290cdfa25d1df5f4b7f4e0151eb699d4281dc26b14c855"},
		{11, 40, 90, "63de918902096fc5225195dc9319a67b2ce4cd2d4c5b5a82c23dc94230a32f7d"},
		{13, 40, 100, "ae1924294f8dcf0d880842b07bbc6b5cbd80290a8829d531f0531a747f689b93"},
		{21, 60, 160, "490403bb4853bb6b6491fe40f2885998930e3a45415d592c08dacff002744ab5"},
		{3, 30, 60, "49b16c0eb6095309f088c2f917661326ac8809122f91239b340925cd7f65bf99"},
		{3, 8, 12, "9035023cf6d6a05881405c246c5ed0ba3166599ecc2e6a1ebf6cefdd8efbc3fd"},
		{5, 40, 90, "712e5a7024363a63b5ef4c3db8d7a3972cd3fed2ff0dbae70ab51aedc4a2a570"},
		{5, 60, 150, "c907a6a06170218e8ed4e063575a7a939e8afc7f4999b52d4fd15793efaf5f04"},
		{77, 120, 300, "bcce50f2f45269f9cbfed43033e1d91bb04ef7a3202a3376abe45e3af2ab6c2c"},
		{78, 60, 150, "1dd279b2803d58cfae6b25734906b03268954ce6e074133453e8336d852f4ddd"},
		{9, 30, 60, "93c3f751645685838b06ca5f9bd77becd87c3ef841c674f81f4e3913db4705e3"},
		{99, 200, 600, "669842a646f773f15811fd7586c86267becde844e01b73aa7b02ea8d5885c8bd"},
		{99, 60, 150, "27c28b9e7ae67cf7571babb57f1ac45af92e5d1722891e61da3f9ee2088dce6b"},
		{99, 80, 240, "bcd0f7e20646c33f1ad648a69416f3979b2682e1aee9053c507d7729022e39dd"},
	} {
		s := memstore.New()
		if _, err := storetest.BuildRandom(s, c.seed, c.nv, c.ne); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(storetest.Fingerprint(s)))); got != c.sum {
			t.Errorf("BuildRandom(%d, %d, %d): fingerprint %s, pinned %s", c.seed, c.nv, c.ne, got, c.sum)
		}
	}
}
