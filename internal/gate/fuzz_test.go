package gate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"mpctree/internal/serve"
)

// FuzzGateBodies posts arbitrary bodies to the five query endpoints of an
// in-process gate fronting one replica that serves one tree, "t-0", with
// "ens" configured as an ensemble of that tree. No body may be answered
// with 500; every 200 must decode into the endpoint's response type; a
// 200 for the plain tree must carry the bytes the replica answers the
// same body with directly; and an ensemble dist must answer the member
// tree's distances.
func FuzzGateBodies(f *testing.F) {
	urls, servers := fleet(f, buildTrees(f, 1, 1, 24), 1)
	_, gw := newGate(f, urls, nil, func(o *Options) {
		o.Ensembles = map[string][]string{"ens": {"t-0", "t-0"}}
	})
	gate, replica := gw.Config.Handler, servers[0].Config.Handler
	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	endpoints := []struct {
		path string
		resp func() any
	}{
		{"/v1/dist", func() any { return &serve.DistResponse{} }},
		{"/v1/knn", func() any { return &serve.KNNResponse{} }},
		{"/v1/cut", func() any { return &serve.CutResponse{} }},
		{"/v1/emd", func() any { return &serve.EMDResponse{} }},
		{"/v1/medoid", func() any { return &serve.MedoidResponse{} }},
	}

	for _, s := range []string{
		`{"tree":"t-0","pairs":[[0,1],[2,3]]}`,
		`{"tree":"ens","pairs":[[0,1],[2,3],[5,5]]}`,
		`{"tree":"ens","pairs":[[0,24]]}`,
		`{"tree":"ens","pairs":null}`,
		`{"tree":"ens","pairs":[[0,1]],"extra":1}`,
		`{"tree":"ens","Tree":"t-0","pairs":[[0,1]]}`,
		`{"tree":"t-0","point":4,"k":3}`,
		`{"tree":"ens","point":4,"k":3}`,
		`{"tree":"t-0","points":[0,1,23],"k":100}`,
		`{"tree":"t-0","scale":50}`,
		`{"tree":"t-0","scale":1e308}`,
		`{"tree":"t-0","mu":"0:1,5:0.5","nu":"9:1.5"}`,
		`{"tree":"t-0","mu":"0:1e308,1:1e308","nu":"2"}`,
		`{"tree":"t-0","pairs":[[0,24]]}`,
		`{"tree":"nope","k":1,"point":0}`,
		`{"tree":"t-0","k":-1,"point":0}`,
		`{"tree":"t-0"}`,
		`{"tree":"ens"}`,
		`{"tree":"t-0"}{"tree":"ens"}`,
		`{"tree":"ens"}{"tree":"t-0"}`,
		`{"tree":7}`,
		`[]`, `null`, `{`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var peek struct {
			Tree string `json:"tree"`
		}
		_ = json.Unmarshal(body, &peek)
		for _, ep := range endpoints {
			rec := post(gate, ep.path, body)
			switch rec.Code {
			case http.StatusInternalServerError:
				t.Fatalf("%s %q: 500 %s", ep.path, body, rec.Body.Bytes())
			case http.StatusOK:
			default:
				continue
			}
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			resp := ep.resp()
			if err := dec.Decode(resp); err != nil {
				t.Fatalf("%s %q: 200 body %q does not decode: %v", ep.path, body, rec.Body.Bytes(), err)
			}
			if peek.Tree == "ens" && ep.path == "/v1/dist" {
				var req serve.DistRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Fatalf("%s %q: answered 200 to a body the gate cannot decode: %v", ep.path, body, err)
				}
				req.Tree = "t-0"
				member, _ := json.Marshal(req)
				direct := post(replica, ep.path, member)
				var want serve.DistResponse
				if direct.Code != http.StatusOK || json.Unmarshal(direct.Body.Bytes(), &want) != nil {
					t.Fatalf("%s %q: ensemble answered 200, member body %q answered %d %s", ep.path, body, member, direct.Code, direct.Body.Bytes())
				}
				if got := resp.(*serve.DistResponse); got.Tree != "ens" || !slices.Equal(got.Dists, want.Dists) {
					t.Fatalf("%s %q: ensemble answered %+v, member tree %+v", ep.path, body, got, want)
				}
				continue
			}
			if direct := post(replica, ep.path, body); direct.Code != http.StatusOK || !bytes.Equal(direct.Body.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("%s %q: gate answered 200 %q, replica %d %q", ep.path, body, rec.Body.Bytes(), direct.Code, direct.Body.Bytes())
			}
		}
	})
}
