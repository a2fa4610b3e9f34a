(* Correctness checks on lock statistics and lock words, and the running
   totals of which lock path did the work. *)

open Tl_core

(* Every acquire the input holds was executed and released: the
   scheme's own statistics show exactly [acquires] acquires and as many
   releases. *)
let conserved ~acquires (s : Lock_stats.snapshot) =
  let releases =
    s.Lock_stats.releases_fast + s.Lock_stats.releases_nested + s.Lock_stats.releases_fat
  in
  Lock_stats.total_acquires s = acquires && releases = acquires

(* [held_after scheme f] runs [f] with a scheme that remembers every
   object acquired through it, then counts the objects whose lock word
   is not back to unlocked. *)
let held_after (scheme : Scheme_intf.packed) f =
  let seen = Hashtbl.create 4096 and lock = Mutex.create () in
  let acquire env obj =
    Mutex.protect lock (fun () -> Hashtbl.replace seen (Tl_heap.Obj_model.id obj) obj);
    scheme.Scheme_intf.acquire env obj
  in
  let r = f { scheme with Scheme_intf.acquire } in
  let unlocked obj = Tl_heap.Header.is_unlocked (Atomic.get (Tl_heap.Obj_model.lockword obj)) in
  (r, Hashtbl.fold (fun _ obj n -> if unlocked obj then n else n + 1) seen 0)

(* Running totals of which path did the work, over many snapshots. *)
type paths = {
  mutable acquires : int;
  mutable fast : int;
  mutable inflations : int;
  mutable inflations_contention : int;
  mutable fat_queued : int;
  mutable contended_episodes : int;
  mutable spin_avoided_parks : int;
}

let paths () =
  {
    acquires = 0;
    fast = 0;
    inflations = 0;
    inflations_contention = 0;
    fat_queued = 0;
    contended_episodes = 0;
    spin_avoided_parks = 0;
  }

let add p (s : Lock_stats.snapshot) =
  p.acquires <- p.acquires + Lock_stats.total_acquires s;
  p.fast <- p.fast + s.Lock_stats.acquires_unlocked + s.Lock_stats.acquires_nested;
  p.inflations <- p.inflations + Lock_stats.total_inflations s;
  p.inflations_contention <- p.inflations_contention + s.Lock_stats.inflations_contention;
  p.fat_queued <- p.fat_queued + s.Lock_stats.acquires_fat_queued;
  p.contended_episodes <- p.contended_episodes + s.Lock_stats.contended_episodes;
  p.spin_avoided_parks <-
    p.spin_avoided_parks
    + Option.value ~default:0 (List.assoc_opt "fatlock.spin_avoided_parks" s.Lock_stats.extra)

let report o p =
  let m name v = Common.metric o name "count" (float_of_int v) in
  Common.metric o "core.fast_ratio" "ratio"
    (if p.acquires = 0 then 1.0 else float_of_int p.fast /. float_of_int p.acquires);
  m "core.inflations" p.inflations;
  m "core.inflations_contention" p.inflations_contention;
  m "core.acquires_fat_queued" p.fat_queued;
  m "core.contended_episodes" p.contended_episodes;
  m "fatlock.spin_avoided_parks" p.spin_avoided_parks
