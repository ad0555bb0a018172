package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"plim"
)

// widthNetlist is a six-input netlist with pos outputs, each a small
// function of a different input triple, as .mig text. Its model name
// holds the text the outputs splice looks for, and characters
// encoding/json escapes.
func widthNetlist(t *testing.T, pos int) (*plim.MIG, string) {
	t.Helper()
	m := plim.NewMIG(fmt.Sprintf(`width%d,"writes":<&>`, pos))
	var in []plim.Signal
	for i := range 6 {
		in = append(in, m.AddPI(fmt.Sprintf("x%d", i)))
	}
	for k := range pos {
		a, b, c := in[k%6], in[(k+1)%6], in[(k/6+3)%6]
		f := m.Xor(m.Maj(a, b.NotIf(k%2 == 1), c), in[(k/36+5)%6])
		m.AddPO(f.NotIf(k%3 == 0), fmt.Sprintf("y%d", k))
	}
	var text bytes.Buffer
	if err := m.Write(&text); err != nil {
		t.Fatal(err)
	}
	return m, text.String()
}

// TestExecuteOutputsBodyMatchesEncodingJSON: the "outputs" array written
// straight into the body makes the execute response, plain and as the SSE
// result frame, byte for byte what encoding/json makes of the response
// with each output vector rendered bit by bit from Batch.Get.
func TestExecuteOutputsBodyMatchesEncodingJSON(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{})
	ctx := context.Background()
	for _, pos := range []int{0, 1, 7, 64, 65} {
		m, netlist := widthNetlist(t, pos)
		if _, err := plim.ReadMIG(strings.NewReader(netlist)); err != nil {
			if pos == 0 {
				t.Logf("the netlist reader refuses a zero-output netlist: %v", err)
				continue
			}
			t.Fatal(err)
		}
		rep, err := s.eng.Run(ctx, m, plim.Full)
		if err != nil {
			t.Fatalf("%d outputs: %v", pos, err)
		}
		p := rep.Result.Program
		for _, n := range []int{1, 63, 64, 65, 130} {
			const seed = 9
			res, err := plim.ExecuteBatch(p, plim.RandomBatch(p.NumPIs(), n, seed), plim.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			req, _ := json.Marshal(computeRequest{Netlist: netlist, Random: n, Seed: seed})
			resp, body := postJSON(t, ts.URL+"/v1/execute", string(req), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%d outputs × %d vectors: %d %s", pos, n, resp.StatusCode, body)
			}
			var out executeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("%d outputs × %d vectors: body does not parse: %v\n%s", pos, n, err, body)
			}
			out.Outputs = make([]string, n)
			line := make([]byte, pos)
			for v := range n {
				for i := range line {
					line[i] = '0'
					if res.Outputs.Get(v, i) {
						line[i] = '1'
					}
				}
				out.Outputs[v] = string(line)
			}
			want, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(body, want) {
				t.Fatalf("%d outputs × %d vectors: body differs from encoding/json's\n got %s\nwant %s", pos, n, body, want)
			}

			sse, _ := http.NewRequest("POST", ts.URL+"/v1/execute", bytes.NewReader(req))
			sse.Header.Set("Accept", "text/event-stream")
			sresp, err := http.DefaultClient.Do(sse)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := io.ReadAll(sresp.Body)
			sresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			frame := append([]byte("\nevent: result\ndata: "), want...)
			if !bytes.HasSuffix(stream, append(frame, '\n')) {
				t.Fatalf("%d outputs × %d vectors: SSE stream does not end in the result frame of encoding/json's body\n%s", pos, n, stream)
			}
		}
	}
}
