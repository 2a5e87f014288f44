// Papers100M: the paper's headline scenario — disk-based GraphSAGE
// training on the (scaled) Papers100M citation graph with a 32 scaled-GB
// host budget — comparing GNNDrive with Ginex and MariusGNN on one epoch.
//
//	go run ./examples/papers100m
//
// (PyG+ is omitted here because its epoch takes ~10x longer; run it via
// `go run ./cmd/gnndrive -system pyg+` or `cmd/figures -exp fig8`.)
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnndrive/internal/gen"
	"gnndrive/internal/nn"
	"gnndrive/internal/trainsim"
)

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := trainsim.Config{
		Dataset:      gen.Papers(),
		Model:        nn.GraphSAGE,
		HostMemoryGB: 32,
	}
	fmt.Println("papers100m-s + GraphSAGE, 32 scaled-GB host memory, one epoch per system")
	var gnndrive time.Duration
	for _, sys := range []trainsim.SystemKind{trainsim.GNNDriveGPU, trainsim.Ginex, trainsim.Marius} {
		res, err := trainsim.RunCtx(ctx, cfg, sys, trainsim.RunOptions{Epochs: 1})
		if err != nil {
			log.Fatalf("%s: %v", sys, err)
		}
		e := res.Epochs[0]
		speed := ""
		if sys == trainsim.GNNDriveGPU {
			gnndrive = e.Total
		} else if gnndrive > 0 {
			speed = fmt.Sprintf("  (GNNDrive is %.1fx faster)", e.Total.Seconds()/gnndrive.Seconds())
		}
		fmt.Printf("%-14s epoch=%8v  prep=%7v  sample=%7v  read=%5.0fMB  reused=%5.0fMB%s\n",
			sys, e.Total.Round(time.Millisecond), e.Prep.Round(time.Millisecond),
			e.Sample.Round(time.Millisecond),
			float64(e.BytesRead)/1e6, float64(e.BytesReused)/1e6, speed)
	}
}
