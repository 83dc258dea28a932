module Capability = Cheri.Capability

type t = Capability.t array

let registers = 32
let create () = Array.make registers Capability.null

let get t i =
  if i < 0 || i >= registers then invalid_arg "Regfile.get";
  t.(i)

let set t i c =
  if i < 0 || i >= registers then invalid_arg "Regfile.set";
  t.(i) <- c

let iteri t f = Array.iteri f t

let map_tagged t f =
  let changed = ref 0 in
  for i = 0 to registers - 1 do
    if Capability.tag t.(i) then begin
      let c' = f t.(i) in
      if not (Capability.equal c' t.(i)) then begin
        t.(i) <- c';
        incr changed
      end
    end
  done;
  !changed
