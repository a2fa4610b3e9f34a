(* The fast-path cost ladder: one uncontended acquire+release pair,
   walked up the stack from the raw lock-word CAS to a mini-JVM
   synchronized block.  The gap between adjacent rungs is what that
   layer adds.  Every rung reports ns per pair (median of [reps]) and
   minor words allocated per pair. *)

open Tl_core
module Runtime = Tl_runtime.Runtime

let pairs = 1_000_000
let reps = 7

type rung = { name : string; ns : float; words : float }

(* [rung name f]: [f n] performs [n] pairs. *)
let rung name f =
  f 10_000;
  let ns =
    Array.init reps (fun _ ->
        let t0 = Spans.now () in
        f pairs;
        float_of_int (Spans.now () - t0) /. float_of_int pairs)
  in
  let w0 = Gc.minor_words () in
  f pairs;
  let words = (Gc.minor_words () -. w0) /. float_of_int pairs in
  { name; ns = Common.median ns; words }

(* The interpreted rung runs the same counted loop with and without a
   synchronized block and charges the difference to the block. *)
let jvm_loop ~sync n =
  Printf.sprintf
    {|class Main {
  static void main() {
    Object o = new Object();
    int s = 0;
    for (int i = 0; i < %d; i = i + 1) {
      %s
    }
    System.println("s=" + s);
  }
}|}
    n
    (if sync then "synchronized (o) { s = s + 1; }" else "s = s + 1;")

let jvm_pairs = 200_000

let jvm_rung () =
  let programs =
    List.map
      (fun sync -> Tl_lang.Driver.compile_source (jvm_loop ~sync jvm_pairs))
      [ true; false ]
  in
  let run program =
    let vm = Tl_lang.Driver.make_vm program in
    let w0 = Gc.minor_words () in
    let t0 = Spans.now () in
    ignore (Tl_jvm.Vm.run_main vm);
    let ns = float_of_int (Spans.now () - t0) in
    (ns, Gc.minor_words () -. w0, Tl_jvm.Vm.output vm)
  in
  let expected = Printf.sprintf "s=%d\n" jvm_pairs in
  let samples =
    Array.init reps (fun _ ->
        match List.map run programs with
        | [ (ns_s, w_s, out_s); (ns_p, w_p, out_p) ] ->
            (ns_s -. ns_p, w_s -. w_p, out_s = expected && out_p = expected)
        | _ -> assert false)
  in
  let per_pair f = Common.median (Array.map f samples) /. float_of_int jvm_pairs in
  ( {
      name = "jvm_sync";
      ns = per_pair (fun (d, _, _) -> d);
      words = per_pair (fun (_, w, _) -> w);
    },
    Array.for_all (fun (_, _, ok) -> ok) samples )

(* Returns the rungs bottom-up and whether every rung left its object
   unlocked and the interpreted loops printed the expected sums. *)
let run () =
  let rt = Runtime.create () in
  let env = Runtime.main_env rt in
  let heap = Tl_heap.Heap.create () in
  let obj = Tl_heap.Heap.alloc heap in
  let ctx = Thin.create rt in
  let packed = Scheme_intf.pack (module Thin) ctx in
  let word = Tl_heap.Obj_model.lockword obj in
  let unlocked = Atomic.get word in
  let locked =
    Tl_heap.Header.thin_word ~hdr:(Tl_heap.Obj_model.hdr_bits obj)
      ~shifted_tid:env.Runtime.shifted_index ~count:0
  in
  let body () = () in
  let floor =
    rung "floor" (fun n ->
        for _ = 1 to n do
          if Atomic.compare_and_set word unlocked locked then Atomic.set word unlocked
        done)
  in
  let direct =
    rung "thin_direct" (fun n ->
        for _ = 1 to n do
          Thin.acquire ctx env obj;
          Thin.release ctx env obj
        done)
  in
  let nested =
    rung "thin_nested" (fun n ->
        Thin.acquire ctx env obj;
        for _ = 1 to n do
          Thin.acquire ctx env obj;
          Thin.release ctx env obj
        done;
        Thin.release ctx env obj)
  in
  let packed_r =
    rung "thin_packed" (fun n ->
        for _ = 1 to n do
          packed.Scheme_intf.acquire env obj;
          packed.Scheme_intf.release env obj
        done)
  in
  let sync =
    rung "thin_sync" (fun n ->
        for _ = 1 to n do
          Thin.sync ctx env obj body
        done)
  in
  let jvm, jvm_ok = jvm_rung () in
  let ok = jvm_ok && Atomic.get word = unlocked && not (Thin.holds ctx env obj) in
  ([ floor; direct; nested; packed_r; sync; jvm ], ok)

let report o rungs =
  List.iter
    (fun r ->
      Common.metric o (Printf.sprintf "ladder.%s_ns" r.name) "ns" r.ns;
      Common.metric o (Printf.sprintf "ladder.%s_words" r.name) "words" r.words)
    rungs
