open Classfile
module Runtime = Tl_runtime.Runtime
module Scheme_intf = Tl_core.Scheme_intf

exception Runtime_error of string

type native_impl = t -> Runtime.env -> Value.t -> Value.t array -> Value.t

and t = {
  program : program;
  heap : Tl_heap.Heap.t;
  scheme : Scheme_intf.packed;
  runtime : Runtime.t;
  natives : (string, native_impl) Hashtbl.t;
  native_states : (string, unit -> Value.native_state) Hashtbl.t;
  class_locks : Value.jobject array; (* one per class, for static synchronized *)
  out : Buffer.t;
  out_mutex : Mutex.t;
  echo : bool;
  mutable handles : Runtime.handle list;
  handles_mutex : Mutex.t;
  safepoint_interval : int; (* polls between quiescence announcements; 0 = off *)
  safepoint_ticks : int Atomic.t;
}

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let runtime t = t.runtime
let heap t = t.heap
let scheme t = t.scheme
let program t = t.program

let alloc_object t ~class_id ~field_defaults ~native =
  let hdr = Tl_heap.Heap.alloc ~class_id t.heap in
  { Value.hdr; class_id; fields = Array.copy field_defaults; native }

let new_object t class_id =
  let c = class_of_id t.program class_id in
  let native =
    match c.c_native_kind with
    | None -> Value.No_native
    | Some kind -> (
        match Hashtbl.find_opt t.native_states kind with
        | Some make -> make ()
        | None -> error "no native state registered for %S" kind)
  in
  alloc_object t ~class_id ~field_defaults:c.c_field_defaults ~native

let default_safepoint_interval = 256

let create ?scheme_of ?(echo = false) ?(safepoint_interval = default_safepoint_interval)
    ~natives ~native_states program =
  if safepoint_interval < 0 then error "safepoint_interval must be >= 0";
  let runtime = Runtime.create () in
  let scheme =
    match scheme_of with
    | Some make -> make runtime
    | None -> Scheme_intf.pack (module Tl_core.Thin) (Tl_core.Thin.create runtime)
  in
  let t =
    {
      program;
      heap = Tl_heap.Heap.create ();
      scheme;
      runtime;
      natives = Hashtbl.create 64;
      native_states = Hashtbl.create 16;
      class_locks = [||];
      out = Buffer.create 256;
      out_mutex = Mutex.create ();
      echo;
      handles = [];
      handles_mutex = Mutex.create ();
      safepoint_interval;
      safepoint_ticks = Atomic.make 0;
    }
  in
  List.iter (fun (k, impl) -> Hashtbl.replace t.natives k impl) natives;
  List.iter (fun (k, make) -> Hashtbl.replace t.native_states k make) native_states;
  let class_locks =
    Array.map
      (fun c -> alloc_object t ~class_id:c.c_id ~field_defaults:[||] ~native:Value.No_native)
      program.classes
  in
  { t with class_locks }

let class_lock_object t class_id = t.class_locks.(class_id)

let print_out t s =
  Mutex.lock t.out_mutex;
  Buffer.add_string t.out s;
  Mutex.unlock t.out_mutex;
  if t.echo then begin
    print_string s;
    flush stdout
  end

let output t =
  Mutex.lock t.out_mutex;
  let s = Buffer.contents t.out in
  Mutex.unlock t.out_mutex;
  s

let sync_op_count t = Tl_core.Lock_stats.total_acquires (t.scheme.Scheme_intf.stats ())

let safepoint_interval t = t.safepoint_interval
let safepoint_polls t = Atomic.get t.safepoint_ticks

(* Safepoint poll: the JVM-style answer to "when may the runtime
   interrupt this thread?".  Polls sit on backward branches and method
   entries — the places a loop cannot avoid — so every thread
   announces a quiescence point every [safepoint_interval] polls no
   matter what bytecode it is stuck in.  The tick counter is shared
   across threads: the interval bounds announcement frequency
   globally, which is what the reaper cares about. *)
let safepoint_poll t env =
  if t.safepoint_interval > 0 then begin
    let n = Atomic.fetch_and_add t.safepoint_ticks 1 in
    if (n + 1) mod t.safepoint_interval = 0 then Runtime.quiescence_point ~env t.runtime
  end

(* --- the interpreter core --- *)

(* Operand stacks start small and double on demand (most methods use a
   handful of slots; allocating big arrays per call would swamp the
   GC), up to a hard cap against runaway programs. *)
let initial_stack = 16

let stack_limit = 65_536

type frame = { locals : Value.t array; mutable stack : Value.t array; mutable sp : int }

let push frame v =
  if frame.sp >= Array.length frame.stack then begin
    if frame.sp >= stack_limit then error "operand stack overflow";
    let bigger = Array.make (2 * Array.length frame.stack) Value.Null in
    Array.blit frame.stack 0 bigger 0 frame.sp;
    frame.stack <- bigger
  end;
  frame.stack.(frame.sp) <- v;
  frame.sp <- frame.sp + 1

let pop frame =
  if frame.sp = 0 then error "operand stack underflow";
  frame.sp <- frame.sp - 1;
  frame.stack.(frame.sp)

let int_binop op a b =
  match op with
  | `Add -> a + b
  | `Sub -> a - b
  | `Mul -> a * b
  | `Div -> if b = 0 then error "division by zero" else a / b
  | `Mod -> if b = 0 then error "modulo by zero" else a mod b

let compare_values c (a : Value.t) (b : Value.t) =
  let open Instr in
  match (c, a, b) with
  | Eq, _, _ -> Value.equal a b
  | Ne, _, _ -> not (Value.equal a b)
  | (Lt | Le | Gt | Ge), Value.Int x, Value.Int y -> (
      match c with
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y
      | Eq | Ne -> assert false)
  | (Lt | Le | Gt | Ge), a, b ->
      error "ordered comparison needs ints, got %s and %s" (Value.type_name a)
        (Value.type_name b)

let rec exec_bytecode t env (code : Instr.t array) (frame : frame) =
  let rec step pc : Value.t =
    if pc < 0 || pc >= Array.length code then error "pc %d out of bounds" pc;
    match code.(pc) with
    | Const_int n ->
        push frame (Value.Int n);
        step (pc + 1)
    | Const_str s ->
        push frame (Value.Str s);
        step (pc + 1)
    | Const_bool b ->
        push frame (Value.Bool b);
        step (pc + 1)
    | Const_null ->
        push frame Value.Null;
        step (pc + 1)
    | Load slot ->
        push frame frame.locals.(slot);
        step (pc + 1)
    | Store slot ->
        frame.locals.(slot) <- pop frame;
        step (pc + 1)
    | Dup ->
        let v = pop frame in
        push frame v;
        push frame v;
        step (pc + 1)
    | Pop ->
        ignore (pop frame);
        step (pc + 1)
    | (Add | Sub | Mul | Div | Mod) as op ->
        let b = pop frame in
        let a = pop frame in
        let result =
          match (op, a, b) with
          | Add, Value.Str _, _ | Add, _, Value.Str _ ->
              Value.Str (Value.to_string a ^ Value.to_string b)
          | Add, Value.Int x, Value.Int y -> Value.Int (int_binop `Add x y)
          | Sub, Value.Int x, Value.Int y -> Value.Int (int_binop `Sub x y)
          | Mul, Value.Int x, Value.Int y -> Value.Int (int_binop `Mul x y)
          | Div, Value.Int x, Value.Int y -> Value.Int (int_binop `Div x y)
          | Mod, Value.Int x, Value.Int y -> Value.Int (int_binop `Mod x y)
          | _, a, b ->
              error "arithmetic on %s and %s" (Value.type_name a) (Value.type_name b)
        in
        push frame result;
        step (pc + 1)
    | Neg ->
        push frame (Value.Int (-Value.as_int (pop frame)));
        step (pc + 1)
    | Not ->
        push frame (Value.Bool (not (Value.as_bool (pop frame))));
        step (pc + 1)
    | Concat ->
        let b = pop frame in
        let a = pop frame in
        push frame (Value.Str (Value.to_string a ^ Value.to_string b));
        step (pc + 1)
    | Cmp c ->
        let b = pop frame in
        let a = pop frame in
        push frame (Value.Bool (compare_values c a b));
        step (pc + 1)
    | Goto target ->
        if target <= pc then safepoint_poll t env;
        step target
    | If_false target ->
        if Value.truthy (pop frame) then step (pc + 1)
        else begin
          if target <= pc then safepoint_poll t env;
          step target
        end
    | If_true target ->
        if Value.truthy (pop frame) then begin
          if target <= pc then safepoint_poll t env;
          step target
        end
        else step (pc + 1)
    | New class_id ->
        push frame (Value.Ref (new_object t class_id));
        step (pc + 1)
    | Get_field slot ->
        let obj = Value.as_ref (pop frame) in
        push frame obj.Value.fields.(slot);
        step (pc + 1)
    | Put_field slot ->
        let v = pop frame in
        let obj = Value.as_ref (pop frame) in
        obj.Value.fields.(slot) <- v;
        step (pc + 1)
    | Invoke (name, argc) ->
        let args = Array.init argc (fun _ -> pop frame) in
        let args = Array.init argc (fun i -> args.(argc - 1 - i)) in
        let receiver = pop frame in
        push frame (call_method t env receiver name args);
        step (pc + 1)
    | Invoke_static (class_id, name, argc) ->
        let args = Array.init argc (fun _ -> pop frame) in
        let args = Array.init argc (fun i -> args.(argc - 1 - i)) in
        push frame (invoke_resolved t env ~class_id ~name Value.Null args);
        step (pc + 1)
    | Return -> Value.Null
    | Return_value -> pop frame
    | Monitor_enter ->
        let obj = Value.as_ref (pop frame) in
        t.scheme.Scheme_intf.acquire env obj.Value.hdr;
        step (pc + 1)
    | Monitor_exit ->
        let obj = Value.as_ref (pop frame) in
        t.scheme.Scheme_intf.release env obj.Value.hdr;
        step (pc + 1)
    | Spawn ->
        let obj = Value.as_ref (pop frame) in
        spawn_runnable t obj;
        step (pc + 1)
  in
  step 0

and invoke_resolved t env ~class_id ~name receiver args =
  let argc = Array.length args in
  match find_method t.program class_id name argc with
  | None ->
      error "no method %s/%d on class %s" name argc (class_of_id t.program class_id).c_name
  | Some (cls, m) ->
      let lock_target =
        if not m.m_synchronized then None
        else if m.m_static then Some t.class_locks.(cls.c_id)
        else
          match receiver with
          | Value.Ref obj -> Some obj
          | _ -> error "synchronized instance method %s with no receiver" name
      in
      let run () =
        match m.m_body with
        | Native key -> (
            match Hashtbl.find_opt t.natives key with
            | Some impl -> impl t env receiver args
            | None -> error "native %S not registered" key)
        | Bytecode code ->
            safepoint_poll t env;
            let locals = Array.make (max m.m_locals (argc + 1)) Value.Null in
            let base =
              if m.m_static then 0
              else begin
                locals.(0) <- receiver;
                1
              end
            in
            Array.iteri (fun i arg -> locals.(base + i) <- arg) args;
            let frame = { locals; stack = Array.make initial_stack Value.Null; sp = 0 } in
            exec_bytecode t env code frame
      in
      (match lock_target with
      | None -> run ()
      | Some obj -> Scheme_intf.synchronized t.scheme env obj.Value.hdr run)

and call_method t env receiver name args =
  match receiver with
  | Value.Ref obj -> invoke_resolved t env ~class_id:obj.Value.class_id ~name receiver args
  | Value.Int _ | Value.Bool _ | Value.Str _ ->
      (* primitives answer the universal Object protocol (toString,
         hashCode), as boxed values would in Java *)
      invoke_resolved t env ~class_id:0 ~name receiver args
  | Value.Null -> error "method call %s on null" name

and spawn_runnable t obj =
  let handle =
    Runtime.spawn ~name:"jthread" t.runtime (fun env ->
        ignore (invoke_resolved t env ~class_id:obj.Value.class_id ~name:"run" (Value.Ref obj) [||]))
  in
  Mutex.lock t.handles_mutex;
  t.handles <- handle :: t.handles;
  Mutex.unlock t.handles_mutex

let call_static t env ~class_name name args =
  match class_by_name t.program class_name with
  | None -> error "no class named %s" class_name
  | Some c -> invoke_resolved t env ~class_id:c.c_id ~name Value.Null args

let join_all_threads t =
  (* Threads may spawn more threads; drain until stable. *)
  let rec drain () =
    Mutex.lock t.handles_mutex;
    let hs = t.handles in
    t.handles <- [];
    Mutex.unlock t.handles_mutex;
    match hs with
    | [] -> ()
    | hs ->
        List.iter Runtime.join hs;
        drain ()
  in
  drain ()

let run_main t =
  let env = Runtime.main_env t.runtime in
  let main_class = class_of_id t.program t.program.main_class in
  let result = invoke_resolved t env ~class_id:main_class.c_id ~name:"main" Value.Null [||] in
  join_all_threads t;
  result
