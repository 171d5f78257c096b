// Command central runs the PDAgent central server: the directory from
// which handhelds download the gateway address list (§3.5).
//
// Usage:
//
//	central -listen :7000 -gateways gw1:8080,gw2:8080
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pdagent/internal/gateway"
	"pdagent/internal/transport"
)

func main() {
	listen := flag.String("listen", ":7000", "listen address")
	gateways := flag.String("gateways", "", "comma-separated gateway addresses to serve")
	flag.Parse()

	if *gateways == "" {
		fmt.Fprintln(os.Stderr, "central: -gateways is required (comma-separated list)")
		os.Exit(2)
	}
	addrs := strings.Split(*gateways, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	dir := gateway.NewDirectory(addrs...)
	log.Printf("central: serving %d gateway(s) on %s", len(addrs), *listen)
	if err := transport.NewServer(dir.Handler()).ListenAndServe(*listen); err != nil {
		log.Fatalf("central: %v", err)
	}
}
