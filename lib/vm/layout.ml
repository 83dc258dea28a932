type t = {
  heap_base : int;
  heap_limit : int;
  shadow_base : int;
  shadow_limit : int;
}

let page = Phys.page_size
let align_up x = (x + page - 1) / page * page

let make ~heap_bytes =
  let heap_bytes = align_up (max heap_bytes page) in
  let heap_base = page in
  (* one bit per granule = heap/128 bytes of bitmap *)
  let shadow_bytes = align_up (heap_bytes / 128 + 1) in
  let shadow_base = heap_base + heap_bytes + page (* guard *) in
  {
    heap_base;
    heap_limit = heap_base + heap_bytes;
    shadow_base;
    shadow_limit = shadow_base + shadow_bytes;
  }

let heap_bytes t = t.heap_limit - t.heap_base

let shadow_addr_of_heap t va =
  assert (va >= t.heap_base && va < t.heap_limit);
  t.shadow_base + ((va - t.heap_base) / 128)

let shadow_bit_of_heap va = va / 16 land 7
let contains_heap t va = va >= t.heap_base && va < t.heap_limit
