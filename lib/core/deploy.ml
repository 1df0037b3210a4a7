(* The single-server testbed is the one-node cluster: one host, no
   switch hop; the shortcuts below name node 0. *)
type t = Cluster.t

let make ?cost ?nblocks ?block_size ?ninodes ?cache_size ?cache_blocks ?readahead ?hour
    ?strict_handles ?(seed = "discfs-deploy") ?fault ?tracing ?workers ?queue_depth ?racecheck
    ?tie_seed () =
  Cluster.make ?cost ?nblocks ?block_size ?ninodes ?cache_size ?cache_blocks ?readahead ?hour
    ?strict_handles ~seed ?fault ?tracing ?workers ?queue_depth ?racecheck ?tie_seed
    ~switch_latency:0. ~servers:1 ()

let link t = Cluster.node_link t 0
let rpc t = Cluster.node_rpc t 0
let server t = Cluster.node_server t 0
let restarts t = Cluster.node_restarts t 0
let crash_and_restart t = Cluster.crash_and_restart t 0

(* Server-set + client-set construction: the N-frontend testbed. A
   {!Cluster} of [servers] frontends plus [clients] cluster-aware
   clients homed round-robin across them. Identities are drawn from
   the cluster DRBG in client order, so the whole fleet is a pure
   function of [seed]. *)
let make_cluster ?cost ?nblocks ?block_size ?ninodes ?cache_size ?cache_blocks ?readahead
    ?hour ?strict_handles ?seed ?tracing ?workers ?queue_depth ?switch_latency ?nshards
    ?lease_duration ?retry ~servers ~clients () =
  let cluster =
    Cluster.make ?cost ?nblocks ?block_size ?ninodes ?cache_size ?cache_blocks ?readahead
      ?hour ?strict_handles ?seed ?tracing ?workers ?queue_depth ?switch_latency ?nshards
      ?lease_duration ~servers ()
  in
  let identities = List.init clients (fun _ -> Cluster.new_identity cluster) in
  let cclients =
    List.mapi
      (fun i identity ->
        Cluster_client.attach cluster ~identity ~uid:(1000 + i) ~home:(i mod servers) ?retry ())
      identities
  in
  (cluster, cclients)
