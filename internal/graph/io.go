package graph

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gnndrive/internal/layout"
	"gnndrive/internal/storage"
)

// fileMagic guards the .gnnd dataset container format.
const fileMagic = "GNND1\n"

// header is the JSON metadata block of a .gnnd file.
type header struct {
	Name       string `json:"name"`
	NumNodes   int64  `json:"num_nodes"`
	NumEdges   int64  `json:"num_edges"`
	Dim        int    `json:"dim"`
	NumClasses int    `json:"num_classes"`
	Train      int    `json:"train"`
	Val        int    `json:"val"`
	// Layout names the feature-region layout: "" or "strided" for the
	// dense table, "packed" when the features were packed offline and a
	// "<container>.pidx" offset index rides next to the container.
	Layout string `json:"layout,omitempty"`
}

// check rejects a header whose counts are negative, or declare arrays
// larger than the size bytes that follow the metadata, before Load sizes
// a single slice or backend from them.
func (h *header) check(size int64) error {
	if h.NumNodes < 0 || h.NumEdges < 0 || h.Dim <= 0 || h.NumClasses <= 0 ||
		h.Train < 0 || h.Val < 0 || int64(h.Train) > h.NumNodes || int64(h.Val) > h.NumNodes {
		return fmt.Errorf("graph: header counts out of range (nodes %d, edges %d, dim %d, classes %d, train %d, val %d)",
			h.NumNodes, h.NumEdges, h.Dim, h.NumClasses, h.Train, h.Val)
	}
	// Bound every term by size first, so the sum cannot overflow.
	tooBig := h.NumNodes > size/12 || h.NumEdges > size/4 ||
		(h.NumNodes > 0 && int64(h.Dim) > size/4/h.NumNodes)
	if !tooBig {
		need := 8*(h.NumNodes+1+int64(h.Train)+int64(h.Val)) + 4*h.NumNodes +
			4*h.NumEdges + 4*h.NumNodes*int64(h.Dim)
		tooBig = need > size
	}
	if tooBig {
		return fmt.Errorf("graph: header declares %d nodes, %d edges, dim %d: more than the file's %d bytes of arrays",
			h.NumNodes, h.NumEdges, h.Dim, size)
	}
	return nil
}

// Save writes the dataset — metadata, indptr, labels, splits, and the
// on-device index and feature arrays — to a .gnnd container file. A
// packed dataset (Addr is a layout.Packed) additionally persists its
// offset index next to the container as "<path>.pidx", the way the
// integrity layer persists its checksum sidecar; Load adopts it.
func Save(ds *Dataset, path string) error {
	layoutName := ""
	packed, _ := ds.Addr.(*layout.Packed)
	if packed != nil {
		layoutName = "packed"
	} else if ds.Addr != nil {
		if _, ok := ds.Addr.(layout.Strided); !ok {
			return fmt.Errorf("graph: save: layout %T has no container representation", ds.Addr)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: save: %w", err)
	}
	defer f.Close() // for the early returns; a second Close is harmless
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(fileMagic); err != nil {
		return err
	}
	h := header{Name: ds.Name, NumNodes: ds.NumNodes, NumEdges: ds.NumEdges,
		Dim: ds.Dim, NumClasses: ds.NumClasses, Train: len(ds.TrainIdx), Val: len(ds.ValIdx),
		Layout: layoutName}
	meta, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(meta))); err != nil {
		return err
	}
	if _, err := w.Write(meta); err != nil {
		return err
	}
	for _, arr := range [][]int64{ds.Indptr, ds.TrainIdx, ds.ValIdx} {
		if err := binary.Write(w, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, ds.Labels); err != nil {
		return err
	}
	// Stream the device arrays in chunks.
	if err := copyRegion(w, ds.Dev, ds.Layout.IndicesOff, ds.Layout.IndicesLen); err != nil {
		return err
	}
	if err := copyRegion(w, ds.Dev, ds.Layout.FeaturesOff, ds.Layout.FeaturesLen); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// Close can report a write error the OS deferred.
	if err := f.Close(); err != nil {
		return fmt.Errorf("graph: save: %w", err)
	}
	if packed != nil {
		if err := packed.SaveIndex(path + ".pidx"); err != nil {
			return err
		}
	}
	return nil
}

func copyRegion(w io.Writer, dev storage.Backend, off, n int64) error {
	buf := make([]byte, 1<<20)
	for done := int64(0); done < n; {
		c := int64(len(buf))
		if done+c > n {
			c = n - done
		}
		if err := dev.ReadRaw(buf[:c], off+done); err != nil {
			return err
		}
		if _, err := w.Write(buf[:c]); err != nil {
			return err
		}
		done += c
	}
	return nil
}

// Load reads a .gnnd container, builds a backend through newBackend with
// capacity for the arrays plus extraBytes of scratch, and returns the
// dataset bound to it. The factory decides where the bytes land — the
// simulator's in-memory image or a real file (storage/sim, storage/file).
func Load(path string, newBackend storage.Factory, extraBytes int64) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: load: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: load: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != fileMagic {
		return nil, fmt.Errorf("graph: %s is not a .gnnd file", path)
	}
	var metaLen int64
	if err := binary.Read(r, binary.LittleEndian, &metaLen); err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	if metaLen <= 0 || metaLen > 1<<20 {
		return nil, fmt.Errorf("graph: implausible metadata length %d", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(r, meta); err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	var h header
	if err := json.Unmarshal(meta, &h); err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	if err := h.check(st.Size() - int64(len(fileMagic)) - 8 - metaLen); err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	ds := &Dataset{
		Name: h.Name, NumNodes: h.NumNodes, NumEdges: h.NumEdges,
		Dim: h.Dim, NumClasses: h.NumClasses,
		Indptr:   make([]int64, h.NumNodes+1),
		TrainIdx: make([]int64, h.Train),
		ValIdx:   make([]int64, h.Val),
		Labels:   make([]int32, h.NumNodes),
	}
	for _, arr := range [][]int64{ds.Indptr, ds.TrainIdx, ds.ValIdx} {
		if err := binary.Read(r, binary.LittleEndian, arr); err != nil {
			return nil, fmt.Errorf("graph: load %s: %w", path, err)
		}
	}
	if err := binary.Read(r, binary.LittleEndian, ds.Labels); err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	indicesLen := 4 * h.NumEdges
	featOff := (indicesLen + 511) / 512 * 512
	featLen := h.NumNodes * int64(h.Dim) * 4
	ds.Layout = Layout{IndicesOff: 0, IndicesLen: indicesLen,
		FeaturesOff: featOff, FeaturesLen: featLen}
	dev, err := newBackend(featOff + featLen + extraBytes)
	if err != nil {
		return nil, fmt.Errorf("graph: load backend: %w", err)
	}
	if err := fillRegion(r, dev, 0, indicesLen); err != nil {
		dev.Close()
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	if err := fillRegion(r, dev, featOff, featLen); err != nil {
		dev.Close()
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	ds.Dev = dev
	switch h.Layout {
	case "", "strided":
		// Default dense table; Addresser() supplies layout.Strided.
	case "packed":
		p, perr := layout.LoadIndex(path+".pidx", featOff)
		if perr != nil {
			dev.Close()
			return nil, fmt.Errorf("graph: load packed container: %w", perr)
		}
		if p.FeatBytes() != h.Dim*4 || p.NumNodes() != h.NumNodes {
			dev.Close()
			return nil, fmt.Errorf("graph: load %s: segment index geometry (%d nodes x %d bytes) does not match container (%d x %d)",
				path, p.NumNodes(), p.FeatBytes(), h.NumNodes, h.Dim*4)
		}
		ds.Addr = p
	default:
		dev.Close()
		return nil, fmt.Errorf("graph: load %s: unknown layout %q", path, h.Layout)
	}
	if err := ds.Validate(); err != nil {
		dev.Close()
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	return ds, nil
}

func fillRegion(r io.Reader, dev storage.Backend, off, n int64) error {
	buf := make([]byte, 1<<20)
	for done := int64(0); done < n; {
		c := int64(len(buf))
		if done+c > n {
			c = n - done
		}
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return err
		}
		if err := dev.WriteRaw(buf[:c], off+done); err != nil {
			return err
		}
		done += c
	}
	return nil
}
