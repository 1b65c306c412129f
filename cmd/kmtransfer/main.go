// Command kmtransfer runs one KompicsMessaging node on real sockets. It
// streams a synthetic dataset to a peer over TCP, UDT or the adaptive DATA
// meta-protocol — the real-network counterpart of the paper's transfer
// experiments (§V-B), with the incompressible pseudorandom dataset standing
// in for the 395 MB NetCDF file — or, with -ping, measures control-message
// round trips over TCP, UDP or UDT, the counterpart of the paper's "ping"
// components (§V-A).
//
// Without -dest the node receives: it takes transfers and answers pings.
// Receiver first, then a sender or a prober:
//
//	kmtransfer -listen 0.0.0.0:9000
//	kmtransfer -listen 0.0.0.0:9001 -dest 10.0.0.2:9000 -proto data -mb 64
//	kmtransfer -listen 0.0.0.0:9001 -dest 10.0.0.2:9000 -ping -proto udt -count 20
//
// Note: each node binds its TCP and UDP port, plus UDP port+1 for UDT.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/data"
	"github.com/kompics/kompicsmessaging-go/internal/filetransfer"
	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/pingpong"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kmtransfer:", err)
		os.Exit(1)
	}
}

func parseProto(s string) (core.Transport, error) {
	switch strings.ToLower(s) {
	case "tcp":
		return core.TCP, nil
	case "udp":
		return core.UDP, nil
	case "udt":
		return core.UDT, nil
	case "data":
		return core.DATA, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (tcp, udp, udt or data)", s)
	}
}

// run is the whole command: it returns when a transfer or a ping run ends,
// or, for a receiver, when ctx is done.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kmtransfer", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9000", "this node's address (ip:port)")
	dest := fs.String("dest", "", "peer address; empty = receive transfers and answer pings")
	protoName := fs.String("proto", "tcp", "transport: tcp, udt or data; with -ping tcp, udp or udt")
	sizeMB := fs.Int64("mb", 395, "dataset size in MB (paper default 395)")
	window := fs.Int("window", 256, "outstanding-chunk window")
	seed := fs.Int64("seed", 1, "dataset and learner seed")
	ping := fs.Bool("ping", false, "measure round trips instead of transferring")
	count := fs.Int("count", 10, "number of probes with -ping")
	interval := fs.Duration("interval", 100*time.Millisecond, "probe interval with -ping")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := core.ParseAddress(*listen)
	if err != nil {
		return err
	}
	proto, err := parseProto(*protoName)
	if err != nil {
		return err
	}
	if *ping && proto == core.DATA {
		return errors.New("-ping needs tcp, udp or udt")
	}
	if *ping && *count < 1 {
		return errors.New("-count must be at least 1")
	}
	if !*ping && proto == core.UDP {
		return errors.New("a transfer needs tcp, udt or data")
	}
	var destAddr core.BasicAddress
	if *dest != "" {
		if destAddr, err = core.ParseAddress(*dest); err != nil {
			return err
		}
	}

	sys, netDef, err := startNode(self)
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	// Registered after Shutdown, so it runs first: bridges blocked on a
	// hand-off that run no longer reads give up before their components
	// are stopped.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	switch {
	case *dest == "":
		return receive(ctx, sys, netDef, self, out)
	case *ping:
		return probe(ctx, sys, netDef, self, destAddr, proto, *count, *interval, out)
	default:
		return send(ctx, sys, netDef, self, destAddr, proto, *sizeMB<<20, *window, *seed, out)
	}
}

// startNode boots this process's network with both tools' serializers
// registered, so one receiving node takes transfers and answers pings. It
// returns once the listeners are bound.
func startNode(self core.BasicAddress) (*kompics.System, *core.Network, error) {
	reg := core.NewRegistry()
	if err := filetransfer.Register(reg); err != nil {
		return nil, nil, err
	}
	if err := pingpong.Register(reg); err != nil {
		return nil, nil, err
	}
	netDef, err := core.NewNetwork(core.NetworkConfig{Self: self, Registry: reg})
	if err != nil {
		return nil, nil, err
	}
	sys := kompics.NewSystem()
	sys.Start(sys.Create(netDef))
	sys.AwaitQuiescence()
	if netDef.Addr(core.TCP) == "" || netDef.Addr(core.UDT) == "" {
		sys.Shutdown()
		return nil, nil, fmt.Errorf("listeners on %v did not come up", self)
	}
	return sys, netDef, nil
}

func receive(ctx context.Context, sys *kompics.System, netDef *core.Network,
	self core.BasicAddress, out io.Writer) error {
	recv := filetransfer.NewReceiver()
	recvComp := sys.Create(recv)
	kompics.MustConnect(netDef.Port(), recv.NetPort())
	ponger := pingpong.NewPonger(self)
	pongerComp := sys.Create(ponger)
	kompics.MustConnect(netDef.Port(), ponger.NetPort())
	done := newBridge(ctx, sys, recv.Port(), filetransfer.Complete{}, nil)
	sys.Start(recvComp)
	sys.Start(pongerComp)

	fmt.Fprintf(out, "receiving on %s (TCP/UDP %d, UDT %d), answering pings\n",
		self, self.Port(), self.Port()+1)
	for {
		select {
		case e := <-done:
			c := e.(filetransfer.Complete)
			rate := float64(c.Bytes) / c.Elapsed.Seconds() / (1 << 20)
			fmt.Fprintf(out, "transfer %d complete: %d bytes in %v (%.2f MB/s)\n",
				c.TransferID, c.Bytes, c.Elapsed.Round(time.Millisecond), rate)
		case <-ctx.Done():
			return nil
		}
	}
}

func send(ctx context.Context, sys *kompics.System, netDef *core.Network,
	self, dest core.BasicAddress, proto core.Transport, size int64, window int,
	seed int64, out io.Writer) error {
	dataset, err := filetransfer.NewDataset(seed, size)
	if err != nil {
		return err
	}
	sender, err := filetransfer.NewSender(filetransfer.SenderConfig{
		Self: self, Dest: dest, Proto: proto,
		Data: dataset, WindowSize: window,
	})
	if err != nil {
		return err
	}
	senderComp := sys.Create(sender)

	// The DATA pseudo-protocol needs the interceptor between sender and
	// network.
	if proto == core.DATA {
		dn, err := data.NewDataNetwork(data.NetworkConfig{
			NewPRP: func() data.ProtocolRatioPolicy {
				prp, err := data.NewTDRatioLearner(data.LearnerConfig{
					Rand: rand.New(rand.NewSource(seed)),
				})
				if err != nil {
					panic(err) // config is static and valid
				}
				return prp
			},
		})
		if err != nil {
			return err
		}
		dnComp := sys.Create(dn)
		kompics.MustConnect(netDef.Port(), dn.Required())
		kompics.MustConnect(dn.Provided(), sender.NetPort())
		sys.Start(dnComp)
	} else {
		kompics.MustConnect(netDef.Port(), sender.NetPort())
	}

	done := newBridge(ctx, sys, sender.Port(), filetransfer.Complete{},
		filetransfer.StartTransfer{TransferID: 1})
	sys.Start(senderComp)

	fmt.Fprintf(out, "sending %d MB to %s over %v…\n", size>>20, dest, proto)
	select {
	case e := <-done:
		c := e.(filetransfer.Complete)
		rate := float64(c.Bytes) / c.Elapsed.Seconds() / (1 << 20)
		fmt.Fprintf(out, "sent %d bytes in %v (%.2f MB/s, sender-side)\n",
			c.Bytes, c.Elapsed.Round(time.Millisecond), rate)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func probe(ctx context.Context, sys *kompics.System, netDef *core.Network,
	self, dest core.BasicAddress, proto core.Transport, count int,
	interval time.Duration, out io.Writer) error {
	pinger := pingpong.NewPinger(pingpong.PingerConfig{
		Self: self, Dest: dest, Proto: proto,
		Interval: interval, Count: count,
	})
	pingerComp := sys.Create(pinger)
	kompics.MustConnect(netDef.Port(), pinger.NetPort())
	samples := newBridge(ctx, sys, pinger.Port(), pingpong.RTTSample{}, pingpong.StartPinging{})
	sys.Start(pingerComp)

	var rtts stats.Sample
	timeout := time.After(time.Duration(count)*interval + 30*time.Second)
	for rtts.N() < count {
		select {
		case e := <-samples:
			s := e.(pingpong.RTTSample)
			fmt.Fprintf(out, "seq=%d rtt=%v\n", s.Seq, s.RTT.Round(time.Microsecond))
			rtts.Add(s.RTT.Seconds())
		case <-timeout:
			fmt.Fprintf(out, "timed out: %d of %d pongs received\n", rtts.N(), count)
			count = rtts.N()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if rtts.N() > 0 {
		fmt.Fprintf(out, "--- %s over %v: %d probes, mean %v ± %v (95%% CI) ---\n",
			dest, proto, rtts.N(),
			time.Duration(rtts.Mean()*float64(time.Second)).Round(time.Microsecond),
			time.Duration(rtts.CI95()*float64(time.Second)).Round(time.Microsecond))
	}
	return nil
}

// bridge connects to a tool component's provided port. It hands each ind
// indication to run's goroutine and, when start is set, sends that request
// from component context once started.
type bridge struct {
	ctx   context.Context
	ptype *kompics.PortType
	ind   kompics.Event
	start kompics.Event
	port  *kompics.Port
	out   chan kompics.Event
}

// newBridge creates, wires and starts a bridge to provided and returns
// the channel its indications arrive on.
func newBridge(ctx context.Context, sys *kompics.System, provided *kompics.Port,
	ind, start kompics.Event) <-chan kompics.Event {
	// The buffer lets a burst of pongs land while run is printing.
	b := &bridge{ctx: ctx, ptype: provided.Type(), ind: ind, start: start,
		out: make(chan kompics.Event, 16)}
	c := sys.Create(b)
	kompics.MustConnect(provided, b.port)
	sys.Start(c)
	return b.out
}

func (b *bridge) Init(ctx *kompics.Context) {
	b.port = ctx.Requires(b.ptype)
	ctx.Subscribe(b.port, b.ind, func(e kompics.Event) {
		select {
		case b.out <- e:
		case <-b.ctx.Done():
		}
	})
	if b.start != nil {
		ctx.OnStart(func() { ctx.Trigger(b.start, b.port) })
	}
}
