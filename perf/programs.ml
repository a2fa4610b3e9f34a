(* The deterministic single-threaded mini-JVM programs of the
   [uncontended] workload, with the output each must print.  The
   expected strings are written by hand (they match the values the
   repository's program tests pin), never taken from the VM.  The
   sources are pinned copies kept next to the benchmark, so editing an
   example program cannot change what the benchmark measures. *)

let expected =
  [
    ("javalex_like", "checksum: 36743\n");
    ("jax_like", "length-2 paths: 1334\n");
    ("compilerish", "distinct opcodes: 5\nbytes emitted: 16782\n");
    ("hashjava_like", "declared: 4000, self-mentions: 61\n");
  ]

type t = { name : string; program : Tl_jvm.Classfile.program; expected : string }

let sources ~dir =
  List.map
    (fun (name, expected) ->
      let path = Filename.concat dir (name ^ ".mj") in
      (name, In_channel.with_open_bin path In_channel.input_all, expected))
    expected

let compile sources =
  List.map
    (fun (name, source, expected) ->
      { name; program = Tl_lang.Driver.compile_source source; expected })
    sources
