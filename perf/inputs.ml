(* Seeded inputs.  Everything the library is given — the replay traces
   and the storm's per-fiber object choices — is generated here from
   the run's seed, so the same seed gives the same inputs and a held-out
   seed gives fresh ones. *)

open Tl_workload

(* Table-1 profiles replayed by the two replay workloads: javalex
   (large, a quarter of its acquires nested), javacup (mid-size, more
   than half nested) and mocha (small, few objects). *)
let trace_profiles = [ "javalex"; "javacup"; "mocha" ]

(* javalex is scaled down to this many acquires; javacup and mocha are
   smaller and replay at their published size. *)
let max_syncs = 1_000_000

type traces = {
  traces : Tracegen.t array;
  acquires : int array;  (** [Tracegen.acquire_count] of each trace *)
  ops : int;  (** lock operations over all the traces *)
}

let traces ~seed =
  let traces =
    Array.of_list
      (List.mapi
         (fun i name ->
           match Profiles.find name with
           | Some p -> Tracegen.generate ~seed:(seed + (1_000_003 * i)) ~max_syncs p
           | None -> invalid_arg ("unknown profile " ^ name))
         trace_profiles)
  in
  {
    traces;
    acquires = Array.map Tracegen.acquire_count traces;
    ops = Array.fold_left (fun n (t : Tracegen.t) -> n + Array.length t.Tracegen.ops) 0 traces;
  }

let name (t : Tracegen.t) = t.Tracegen.profile.Profiles.name

(* The storm's shape, as the shipped fiber storm runs it: 1024 objects
   at Zipf 0.99 and an admission window of 4096 fibers, one lock
   episode per fiber. *)
let storm_objects = 1024
let storm_zipf = 0.99
let storm_window = 4096

(* Fibers admitted per storm pass. *)
let storm_fibers = 131_072

let zipf_cdf ~theta n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample_cdf cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* [storm_draws ~seed] is the object index of every fiber of a pass. *)
let storm_draws ~seed =
  let prng = Tl_util.Prng.create (seed lxor 0x5707) in
  let cdf = zipf_cdf ~theta:storm_zipf storm_objects in
  Array.init storm_fibers (fun _ -> sample_cdf cdf (Tl_util.Prng.float prng 1.0))

(* Hex digest of the traces and the storm draws, for the seed test. *)
let digest ~seed =
  let traces = Array.map (fun (t : Tracegen.t) -> (t.pool_size, t.ops)) (traces ~seed).traces in
  Digest.to_hex (Digest.string (Marshal.to_string (traces, storm_draws ~seed) []))
