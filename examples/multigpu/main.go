// Multi-GPU: GNNDrive's data-parallel training (Fig. 7 / Fig. 13) on the
// scaled Papers100M graph across 1, 2, and 4 simulated Tesla K80s. Each
// worker owns a full pipeline and its own device-resident feature buffer;
// topology and the staging buffer are shared, and gradients synchronize
// every step.
//
//	go run ./examples/multigpu
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnndrive/internal/device"
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
		HostMemoryGB: 256, // the scalability machine's unrestricted host
	}
	fmt.Println("GNNDrive data parallelism on simulated K80s, papers100m-s + GraphSAGE")
	var base time.Duration
	for _, workers := range []int{1, 2, 4} {
		epoch, err := trainsim.RunParallel(ctx, cfg, workers, device.TeslaK80(), 1)
		if err != nil {
			log.Fatalf("%d workers: %v", workers, err)
		}
		if workers == 1 {
			base = epoch
		}
		fmt.Printf("%d worker(s): epoch %8v  speedup %.2fx\n",
			workers, epoch.Round(time.Millisecond), base.Seconds()/epoch.Seconds())
	}
}
