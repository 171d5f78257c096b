// Quickstart: the smallest end-to-end PDAgent session.
//
// Act one assembles the default simulated world (one gateway, two bank
// sites on different MAS brands), subscribes a handheld to the
// e-banking application, dispatches an agent while "connected",
// disconnects, lets the journey run, reconnects and collects the
// result — the paper's §3.1–3.3 workflow.
//
// Act two is the disconnection-tolerant version (DESIGN.md §7): the
// device queues an execution while its uplink is down, truly
// disconnects mid-itinerary, and on reconnection OpenSession drains
// the queue and receives the finished result from its durable gateway
// mailbox — no polling, exactly once.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pdagent/internal/core"
	"pdagent/internal/mavm"
)

func ebankingParams(amount int64) map[string]mavm.Value {
	txn := mavm.NewMap()
	txn.MapEntries()["from"] = mavm.Str("alice")
	txn.MapEntries()["to"] = mavm.Str("bob")
	txn.MapEntries()["amount"] = mavm.Int(amount)
	return map[string]mavm.Value{
		"banks":        mavm.NewList(mavm.Str("bank-a"), mavm.Str("bank-b")),
		"transactions": mavm.NewList(txn),
	}
}

func main() {
	world, err := core.NewSimWorld(core.SimConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	dev, err := world.NewDevice("quickstart-pda")
	if err != nil {
		log.Fatal(err)
	}
	ctx, clock := world.NewJourney()

	// 1. Subscribe (download the MA code from the gateway).
	if err := dev.Subscribe(ctx, "gw-0", core.AppEBanking); err != nil {
		log.Fatal(err)
	}
	fmt.Println("subscribed:", dev.Subscriptions())

	// 2. Enter parameters offline, then go online just long enough to
	//    upload the Packed Information.
	before := clock.Now()
	agentID, err := dev.Dispatch(ctx, core.AppEBanking, ebankingParams(250))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dispatched agent %s (upload took %v online)\n", agentID, clock.Now()-before)

	// 3. Disconnect. The agent travels the wired network on its own.
	world.Run()

	// 4. Reconnect and collect the XML result document.
	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("journey %s after %d hops\n", rd.Status, rd.Hops)
	if receipts, ok := rd.Get("receipts"); ok {
		for _, r := range receipts.ListItems() {
			fmt.Println("  receipt:", r)
		}
	}
	for addr, bank := range world.Banks {
		bal, _ := bank.Balance("alice")
		fmt.Printf("  %s alice balance: %d\n", addr, bal)
	}

	// --- Act two: the disconnected device (DESIGN.md §7) -------------

	// 5. The uplink is down: queue the execution offline. The Packed
	//    Information (parameters, nonce, dispatch key) is built now and
	//    stored in the device database.
	if err := world.DisconnectDevice("quickstart-pda"); err != nil {
		log.Fatal(err)
	}
	if _, err := dev.QueueDispatch(core.AppEBanking, ebankingParams(100)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuplink down; queued %d dispatch(es) offline\n", len(dev.QueuedDispatches()))

	// 6. Reconnect: OpenSession drains the queue (the agent departs)...
	if err := world.ReconnectDevice("quickstart-pda"); err != nil {
		log.Fatal(err)
	}
	s, err := dev.OpenSession(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session: drained %d queued dispatch(es): %v\n", len(s.Dispatched), s.Dispatched)

	// 7. ...and the device drops off the air again while the journey
	//    runs. The result lands in its durable gateway mailbox.
	if err := world.DisconnectDevice("quickstart-pda"); err != nil {
		log.Fatal(err)
	}
	world.Run()

	// 8. Next reconnection: the session delivers the result from the
	//    mailbox — no polling, exactly once.
	if err := world.ReconnectDevice("quickstart-pda"); err != nil {
		log.Fatal(err)
	}
	s2, err := dev.OpenSession(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range s2.Deliveries {
		fmt.Printf("mailbox delivered %s for agent %s (status %s)\n", d.Kind, d.AgentID, d.Result.Status)
	}
	for addr, bank := range world.Banks {
		bal, _ := bank.Balance("alice")
		fmt.Printf("  %s alice balance: %d\n", addr, bal)
	}
}
