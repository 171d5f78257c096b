// Command pdagent is the handheld-side CLI: the UI layer over the
// PDAgent Platform (internal/device). The on-device RMS database is a
// WAL directory (rms.WALStore), so subscriptions and pending journeys
// survive between invocations and a power loss — subscribe once,
// dispatch while "connected", collect later, exactly the paper's
// offline workflow.
//
// Usage:
//
//	pdagent -db pda.rms gateways -central localhost:7000
//	pdagent -db pda.rms probe
//	pdagent -db pda.rms catalog  -gateway localhost:8080
//	pdagent -db pda.rms subscribe -gateway localhost:8080 -code app.ebanking
//	pdagent -db pda.rms dispatch -code app.ebanking \
//	    -param banks=host1:9001,host2:9002 \
//	    -param transactions='[{"from":"alice","to":"bob","amount":100}]'
//	pdagent -db pda.rms status  -agent <id>
//	pdagent -db pda.rms collect -agent <id>
//	pdagent -db pda.rms retract -agent <id>
//	pdagent -db pda.rms dispose -agent <id>
//	pdagent -db pda.rms clone   -agent <id>
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pdagent/internal/device"
	"pdagent/internal/mavm"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

func usage() {
	fmt.Fprintln(os.Stderr, `pdagent [-db DIR] [-owner NAME] COMMAND [flags]

Commands:
  gateways   download the gateway list  (-central ADDR)
  probe      RTT-probe the gateway list and show the nearest
  catalog    list a gateway's applications  (-gateway ADDR)
  subscribe  download a code package  (-gateway ADDR -code ID)
  list       show stored subscriptions and pending agents
  dispatch   launch an application  (-code ID -param k=v ...)
  queue      queue an execution offline for the next session  (-code ID -param ...)
  session    reconnect: drain the offline queue and pull the mailbox  (-gateway ADDR optional)
  status     agent progress  (-agent ID)
  collect    download the result document  (-agent ID)
  retract    pull the agent back to the gateway  (-agent ID)
  dispose    terminate the agent  (-agent ID)
  clone      duplicate the agent  (-agent ID)`)
	os.Exit(2)
}

func main() {
	root := flag.NewFlagSet("pdagent", flag.ExitOnError)
	db := root.String("db", "pdagent.rms", "on-device database directory (a group-commit WAL, created if missing)")
	owner := root.String("owner", "pda-user", "owner identity")
	root.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	args := root.Args()
	if len(args) == 0 {
		usage()
	}

	store, err := rms.OpenWALStore(*db, rms.WALOptions{})
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	plat, err := device.NewPlatform(device.Config{
		Owner:     *owner,
		Transport: &transport.HTTPClient{},
		Store:     store,
		Secure:    true,
	})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	gw := fs.String("gateway", "", "gateway address")
	central := fs.String("central", "", "central server address")
	code := fs.String("code", "", "code package id")
	agent := fs.String("agent", "", "agent id")
	var params paramFlags
	fs.Var(&params, "param", "agent parameter key=value (repeatable; value may be int, list a,b,c or JSON-ish)")
	fs.Parse(rest) //nolint:errcheck // ExitOnError

	switch cmd {
	case "gateways":
		need(*central != "", "-central")
		if err := plat.RefreshGateways(ctx, *central); err != nil {
			fatal(err)
		}
		for _, a := range plat.Gateways() {
			fmt.Println(a)
		}
	case "probe":
		probes, err := plat.ProbeGateways(ctx)
		if err != nil {
			fatal(err)
		}
		for _, p := range probes {
			if p.Err != nil {
				fmt.Printf("%-24s unreachable (%v)\n", p.Addr, p.Err)
				continue
			}
			fmt.Printf("%-24s %v\n", p.Addr, p.RTT)
		}
		best, rtt, err := plat.SelectGateway(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nearest: %s (%v)\n", best, rtt)
	case "catalog":
		need(*gw != "", "-gateway")
		entries, err := plat.Catalogue(ctx, *gw)
		if err != nil {
			fatal(err)
		}
		for _, e := range entries {
			fmt.Printf("%-20s %-8s %s — %s\n", e.CodeID, e.Version, e.Name, e.Description)
		}
	case "subscribe":
		need(*gw != "" && *code != "", "-gateway and -code")
		if err := plat.Subscribe(ctx, *gw, *code); err != nil {
			fatal(err)
		}
		fmt.Printf("subscribed to %s at %s\n", *code, *gw)
	case "list":
		fmt.Println("subscriptions:")
		for _, s := range plat.Subscriptions() {
			fmt.Println("  " + s)
		}
		fmt.Println("pending agents:")
		for _, a := range plat.Pending() {
			fmt.Println("  " + a)
		}
		if n, err := plat.Footprint(); err == nil {
			fmt.Printf("database: %d bytes\n", n)
		}
	case "dispatch":
		need(*code != "", "-code")
		id, err := plat.Dispatch(ctx, *code, params.values)
		if err != nil {
			fatal(err)
		}
		fmt.Println(id)
	case "queue":
		// Entirely offline: the Packed Information is built and stored
		// now, uploaded by the next `session`.
		need(*code != "", "-code")
		id, err := plat.QueueDispatch(*code, params.values)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("queued %s (%d in queue; run `pdagent session` when connected)\n", id, len(plat.QueuedDispatches()))
	case "session":
		// The §7 reconnection ritual: drain queued dispatches, then
		// pull everything the gateway mailbox accumulated while away.
		s, err := plat.OpenSessionAt(ctx, *gw)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("session at %s: %d queued dispatch(es) sent, %d left, %d delivered, %d evicted\n",
			s.Gateway, len(s.Dispatched), s.QueuedLeft, len(s.Deliveries), s.Evicted)
		for _, id := range s.Dispatched {
			fmt.Println("dispatched: " + id)
		}
		for _, d := range s.Deliveries {
			if d.Result != nil {
				printResult(d.Result)
				continue
			}
			fmt.Printf("%s %s: %s\n", d.Kind, d.AgentID, d.Note)
		}
	case "status":
		need(*agent != "", "-agent")
		state, body, err := plat.AgentStatus(ctx, *agent)
		if err != nil {
			fatal(err)
		}
		fmt.Println(state)
		if len(body) > 0 {
			fmt.Println(string(body))
		}
	case "collect":
		need(*agent != "", "-agent")
		rd, err := plat.Collect(ctx, *agent)
		if err != nil {
			fatal(err)
		}
		printResult(rd)
	case "retract":
		need(*agent != "", "-agent")
		if err := plat.Retract(ctx, *agent); err != nil {
			fatal(err)
		}
		fmt.Println("retract scheduled; collect the partial result once it arrives")
	case "dispose":
		need(*agent != "", "-agent")
		if err := plat.Dispose(ctx, *agent); err != nil {
			fatal(err)
		}
		fmt.Println("disposed")
	case "clone":
		need(*agent != "", "-agent")
		id, err := plat.Clone(ctx, *agent)
		if err != nil {
			fatal(err)
		}
		fmt.Println(id)
	default:
		usage()
	}
}

func printResult(rd *wire.ResultDocument) {
	fmt.Printf("agent:  %s\nstatus: %s\nhops:   %d\n", rd.AgentID, rd.Status, rd.Hops)
	if rd.Error != "" {
		fmt.Printf("error:  %s\n", rd.Error)
	}
	for _, r := range rd.Results {
		fmt.Printf("%s = %s\n", r.Key, r.Value)
	}
}

func need(ok bool, what string) {
	if !ok {
		fmt.Fprintf(os.Stderr, "pdagent: missing %s\n", what)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdagent:", err)
	os.Exit(1)
}

// paramFlags parses repeated -param key=value flags into mavm values:
// ints stay ints, "a,b,c" becomes a list of strings, and a tiny
// JSON-ish syntax [{"k":v,...},...] builds lists of maps for the
// e-banking transactions parameter.
type paramFlags struct {
	values map[string]mavm.Value
}

func (p *paramFlags) String() string { return "" }

func (p *paramFlags) Set(s string) error {
	if p.values == nil {
		p.values = map[string]mavm.Value{}
	}
	key, raw, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p.values[key] = parseValue(raw)
	return nil
}

func parseValue(raw string) mavm.Value {
	raw = strings.TrimSpace(raw)
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return mavm.Int(n)
	}
	if strings.HasPrefix(raw, "[") {
		if v, err := parseJSONish(raw); err == nil {
			return v
		}
	}
	if strings.Contains(raw, ",") {
		parts := strings.Split(raw, ",")
		items := make([]mavm.Value, len(parts))
		for i, part := range parts {
			items[i] = parseValue(part)
		}
		return mavm.NewList(items...)
	}
	return mavm.Str(raw)
}

// parseJSONish handles the small subset needed on the command line:
// arrays of objects/strings/numbers with double-quoted keys/strings.
func parseJSONish(s string) (mavm.Value, error) {
	p := &jsonish{s: s}
	v, err := p.value()
	if err != nil {
		return mavm.Nil(), err
	}
	p.ws()
	if p.i != len(p.s) {
		return mavm.Nil(), fmt.Errorf("trailing input at %d", p.i)
	}
	return v, nil
}

type jsonish struct {
	s string
	i int
}

func (p *jsonish) ws() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *jsonish) value() (mavm.Value, error) {
	p.ws()
	if p.i >= len(p.s) {
		return mavm.Nil(), fmt.Errorf("unexpected end")
	}
	switch c := p.s[p.i]; {
	case c == '[':
		p.i++
		var items []mavm.Value
		for {
			p.ws()
			if p.i < len(p.s) && p.s[p.i] == ']' {
				p.i++
				return mavm.NewList(items...), nil
			}
			v, err := p.value()
			if err != nil {
				return mavm.Nil(), err
			}
			items = append(items, v)
			p.ws()
			if p.i < len(p.s) && p.s[p.i] == ',' {
				p.i++
			}
		}
	case c == '{':
		p.i++
		m := mavm.NewMap()
		for {
			p.ws()
			if p.i < len(p.s) && p.s[p.i] == '}' {
				p.i++
				return m, nil
			}
			k, err := p.str()
			if err != nil {
				return mavm.Nil(), err
			}
			p.ws()
			if p.i >= len(p.s) || p.s[p.i] != ':' {
				return mavm.Nil(), fmt.Errorf("expected ':' at %d", p.i)
			}
			p.i++
			v, err := p.value()
			if err != nil {
				return mavm.Nil(), err
			}
			m.MapEntries()[k] = v
			p.ws()
			if p.i < len(p.s) && p.s[p.i] == ',' {
				p.i++
			}
		}
	case c == '"':
		s, err := p.str()
		return mavm.Str(s), err
	default:
		start := p.i
		for p.i < len(p.s) && (p.s[p.i] == '-' || (p.s[p.i] >= '0' && p.s[p.i] <= '9')) {
			p.i++
		}
		n, err := strconv.ParseInt(p.s[start:p.i], 10, 64)
		if err != nil {
			return mavm.Nil(), fmt.Errorf("bad token at %d", start)
		}
		return mavm.Int(n), nil
	}
}

func (p *jsonish) str() (string, error) {
	if p.i >= len(p.s) || p.s[p.i] != '"' {
		return "", fmt.Errorf("expected string at %d", p.i)
	}
	p.i++
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != '"' {
		p.i++
	}
	if p.i >= len(p.s) {
		return "", fmt.Errorf("unterminated string")
	}
	out := p.s[start:p.i]
	p.i++
	return out, nil
}
