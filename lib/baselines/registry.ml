open Tl_core

let pack_thin ?config runtime =
  let ctx = Thin.create_with ?config runtime in
  Scheme_intf.pack ~deflate_idle:(Thin.deflate_idle ctx) (module Thin) ctx

let rename name packed = { packed with Scheme_intf.name }

let thin_variant name config runtime = rename name (pack_thin ~config runtime)

(* Fig. 6 MP Sync: one atomic read-modify-write on a per-scheme pad
   before each acquire and each release, standing in for the PowerPC
   isync/sync pair (the closest full barrier OCaml exposes).  The
   variant is picked here, so the default thin path has no fence
   branch; the fence runs once per call, not on slow-path retries. *)
let pack_mpsync runtime =
  let ctx = Thin.create runtime in
  let pad = Atomic.make 0 in
  {
    (Scheme_intf.pack ~deflate_idle:(Thin.deflate_idle ctx) (module Thin) ctx) with
    Scheme_intf.name = "thin-mpsync";
    acquire =
      (fun env obj ->
        ignore (Atomic.fetch_and_add pad 1);
        Thin.acquire ctx env obj);
    release =
      (fun env obj ->
        ignore (Atomic.fetch_and_add pad 1);
        Thin.release ctx env obj);
  }

let table : (string * string * (Tl_runtime.Runtime.t -> Scheme_intf.packed)) list =
  [
    ("thin", "thin locks, paper's final configuration", pack_thin ?config:None);
    ( "thin-unlkcas",
      "thin locks releasing with compare-and-swap (Fig. 6 UnlkC&S)",
      thin_variant "thin-unlkcas" { Thin.default_config with unlock_with_cas = true } );
    ( "thin-mpsync",
      "thin locks with an extra fence per operation (Fig. 6 MP Sync)",
      pack_mpsync );
    ( "thin-busy",
      "thin locks with pure busy-wait contention spinning",
      thin_variant "thin-busy"
        { Thin.default_config with backoff_policy = Tl_runtime.Backoff.Busy } );
    ( "thin-yield",
      "thin locks spinning with yields but never sleeping",
      thin_variant "thin-yield"
        { Thin.default_config with backoff_policy = Tl_runtime.Backoff.Yield } );
    ( "thin-count2",
      "thin locks with a 2-bit nest count (count-width ablation, §3.2)",
      thin_variant "thin-count2" { Thin.default_config with count_width = 2 } );
    ( "thin-count4",
      "thin locks with a 4-bit nest count",
      thin_variant "thin-count4" { Thin.default_config with count_width = 4 } );
    ( "thin-nostats",
      "thin locks without statistics recording (pure-time runs)",
      thin_variant "thin-nostats" { Thin.default_config with record_stats = false } );
    ( "thin-hapax",
      "thin locks inflating to FIFO ticket-admission monitors (Hapax contended path)",
      thin_variant "thin-hapax"
        { Thin.default_config with fat_backend = Tl_monitor.Fatlock.Hapax } );
    ( "jdk111",
      "Sun JDK 1.1.1 port: global monitor cache with recycling",
      fun runtime -> Scheme_intf.pack (module Jdk111) (Jdk111.create runtime) );
    ( "ibm112",
      "IBM JDK 1.1.2: 32 hot locks over a monitor cache",
      fun runtime -> Scheme_intf.pack (module Ibm112) (Ibm112.create runtime) );
    ( "cjm",
      "Compact Java Monitors: headerless, transient hash-table monitors",
      fun runtime -> Scheme_intf.pack (module Tl_cjm.Cjm) (Tl_cjm.Cjm.create runtime) );
    ( "fat",
      "always-inflated control: a dedicated fat monitor per object",
      fun runtime -> Scheme_intf.pack (module Fat_only) (Fat_only.create runtime) );
    ( "fat-hapax",
      "always-inflated control over FIFO ticket-admission monitors",
      fun runtime ->
        rename "fat-hapax"
          (Scheme_intf.pack (module Fat_only)
             (Fat_only.create_with ~backend:Tl_monitor.Fatlock.Hapax runtime)) );
    ( "mcs",
      "MCS queue locks with monitor semantics layered on top (§4.1)",
      fun runtime -> Scheme_intf.pack (module Mcs) (Mcs.create runtime) );
    ( "nosync",
      "no locking at all (Fig. 6 NOP; not a correct monitor!)",
      fun runtime -> Scheme_intf.pack (module Nosync) (Nosync.create runtime) );
  ]

let names () = List.map (fun (n, _, _) -> n) table

let find name =
  List.find_map (fun (n, _, make) -> if String.equal n name then Some make else None) table

let find_exn name runtime =
  match find name with
  | Some make -> make runtime
  | None ->
      invalid_arg
        (Printf.sprintf "unknown scheme %S (known: %s)" name (String.concat ", " (names ())))

let describe name =
  List.find_map (fun (n, d, _) -> if String.equal n name then Some d else None) table

let paper_trio = [ "jdk111"; "ibm112"; "thin" ]
let fig6_variants = [ "nosync"; "thin"; "thin-mpsync"; "thin-unlkcas" ]
