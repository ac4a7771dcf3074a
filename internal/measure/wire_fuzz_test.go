package measure

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder that the
// collector's /v1/upload handler (DecodeBatch) and its spool replay
// (BatchDecoder over a segment file) share. Properties, for any input:
//
//   - neither decoder panics;
//   - whatever decodes re-encodes to bytes that decode to the same
//     batch: decode(encode(decode(x))) == decode(x);
//   - DecodeBatch accepts exactly the inputs the stream decoder reads
//     as one batch followed by a clean end, and returns that batch;
//   - the stream decoder's durable offset never moves backwards or
//     past the input.
//
// Seeds live in testdata/fuzz/FuzzDecodeBatch; CI runs this target on
// a bounded budget (-fuzztime).
func FuzzDecodeBatch(f *testing.F) {
	var valid bytes.Buffer
	if err := EncodeBatch(&valid, Batch{
		Device: "phone-1", Key: "phone-1/k/1", Seq: 1,
		Records: []Record{wireRec("phone-1", "com.app", 12.5, 100), wireRec("", "com.other", 3, 200)},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		one, oneErr := DecodeBatch(bytes.NewReader(data))
		if oneErr == nil {
			batchRoundTrip(t, one)
		}

		dec := NewBatchDecoder(bytes.NewReader(data))
		var stream []Batch
		var off int64
		var streamErr error
		for {
			b, err := dec.Next()
			if next := dec.InputOffset(); next < off || next > int64(len(data)) {
				t.Fatalf("offset moved from %d to %d over %d bytes", off, next, len(data))
			} else {
				off = next
			}
			if err != nil {
				streamErr = err
				break
			}
			batchRoundTrip(t, b)
			stream = append(stream, b)
		}

		single := len(stream) == 1 && streamErr == io.EOF
		if (oneErr == nil) != single {
			t.Fatalf("DecodeBatch err=%v, but the stream decoded %d batches then %v", oneErr, len(stream), streamErr)
		}
		if single && !reflect.DeepEqual(one, stream[0]) {
			t.Fatalf("DecodeBatch and BatchDecoder disagree:\n%+v\n%+v", one, stream[0])
		}
	})
}

// batchRoundTrip checks that b survives encode then decode unchanged.
func batchRoundTrip(t *testing.T, b Batch) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, b); err != nil {
		t.Fatalf("re-encode of a decoded batch: %v", err)
	}
	again, err := DecodeBatch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decoded batch re-encodes to undecodable bytes: %v\n%s", err, buf.Bytes())
	}
	if !reflect.DeepEqual(again, b) {
		t.Fatalf("round trip changed the batch:\n%+v\n%+v", b, again)
	}
}
