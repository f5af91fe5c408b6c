"""Golden digests of the generated inputs.

perfbench and the experiments draw their data from these generators, so a
rewrite of how they build relations must not drift it: the sha256 of
every column dictionary (``values``, in code order) and of the CSV export
is pinned for seeds 7 and 1, on the clean customers, on a noised copy
(perfbench's noise: domain errors on street and city) and on both
relations of an orders database.
"""

import hashlib

import pytest

from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.datagen.orders import OrdersGenerator
from repro.relational.csvio import relation_to_csv


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(relation):
    """Per column ``sha256(repr(values))``, then the CSV export's."""
    found = {column.attribute: sha(repr(column.values))
             for column in relation.columns.columns()}
    found["csv"] = sha(relation_to_csv(relation))
    return found


def generated(seed):
    clean = CustomerGenerator(seed).generate(2000)
    noisy = inject_noise(clean, rate=0.04, attributes=["street", "city"],
                         seed=seed + 1).dirty
    database, _expected = OrdersGenerator(seed).generate(500)
    return {"customer": clean, "noisy": noisy,
            "cd": database.relation("cd"), "book": database.relation("book")}


#: computed on the generators as they were before they fed batches
GOLDEN = {
    7: {
        "customer": {
            "cc": "cde403620f782f78546ebce6eccf1b57c2b0e73c4a6554f77a377644fcd4fd9c",
            "ac": "6f1c1ef5475e8f512300d2c8333cf3145fc476b83a93478ec5069988bced7333",
            "phn": "fd3d25b6bddb0129039a7b5f3bea4d9dad17ad45569a5357894145916a2795ef",
            "name": "cc08e06d234d3496c980d8b2b83049b37d833d414590c9a4cbcf4c5f329b8b0e",
            "street": "caa4b73fc387936e16930acf8b99121e7d08920b9d73921ee7cb0c3711029d3c",
            "city": "3d390e15589e0159075687a0452e2cca8b23720171395067cd6bcf9fa8ecad57",
            "zip": "93d4f89db89166be60fed97714a0edbe7775a0734024a0409a3a5e124e10a5e1",
            "csv": "f12b68395dd9af185cf4a281cff3b2dd0d0810dc3e65eadbec3103ea1a1a71e5",
        },
        "noisy": {
            "cc": "cde403620f782f78546ebce6eccf1b57c2b0e73c4a6554f77a377644fcd4fd9c",
            "ac": "6f1c1ef5475e8f512300d2c8333cf3145fc476b83a93478ec5069988bced7333",
            "phn": "fd3d25b6bddb0129039a7b5f3bea4d9dad17ad45569a5357894145916a2795ef",
            "name": "cc08e06d234d3496c980d8b2b83049b37d833d414590c9a4cbcf4c5f329b8b0e",
            "street": "caa4b73fc387936e16930acf8b99121e7d08920b9d73921ee7cb0c3711029d3c",
            "city": "3d390e15589e0159075687a0452e2cca8b23720171395067cd6bcf9fa8ecad57",
            "zip": "93d4f89db89166be60fed97714a0edbe7775a0734024a0409a3a5e124e10a5e1",
            "csv": "81002833a469ca7ee6a84e1c69f23fc51375396fcf8cb99602c6a4fa4ae801fc",
        },
        "cd": {
            "album": "593f1766fb513b11a7ac7b6998a3a92e347fb9fe0dd998801ed35294bc3593c2",
            "price": "e113d59687f884ece872069bf7b8de68a68b4bbfceba304fa45173a2241b0245",
            "genre": "12bc1f13ffb9f3e14043194efe8511ae7fa73c4866ad78f91bbb6d31108c2d9b",
            "csv": "33fb63e9490c7cb20a231f5cd086b976e6256f9b73c4bebdd71cba7bf8966177",
        },
        "book": {
            "title": "f6e19a83e9f109bd5e0d57f5c7e97477e30e54f67bab53c59df1f1d7f6370902",
            "price": "1d3a3cd80e349669a6de7ea186491ceb0c99bfac08a76f9c63f31f67cd35ab13",
            "format": "7e513f654f97d11e64dbd2d605efd69399694ae6f8bea8ba472091fe915dce12",
            "csv": "9078c39e67f7ae2d0c03a655773d09e42404cdcdeb11713ebc8cd11198876b4c",
        },
    },
    1: {
        "customer": {
            "cc": "fcc8214619622f8e9dbe9ad31a771bb70eb3d3c14f899cbd94d6169809dc97e6",
            "ac": "757ac1abee3b534221f77c4ff3cf14f7378619a5e025ca23be97d3d6e79e9d0f",
            "phn": "fd3d25b6bddb0129039a7b5f3bea4d9dad17ad45569a5357894145916a2795ef",
            "name": "d4fcc9ee46af17b2e2f63ff15ca10f0924f838a59f6e07d10e3d7879d2d68fd7",
            "street": "125177b3988a820498ca4dcd4fd15b692792a680c7ed1ea0117eeffdda4948eb",
            "city": "66582fdc87bf1b5d7e21e6a5904d4250649f053cbb4dc4a3262e046dc18a3b50",
            "zip": "c00d9356561133de781f987fc83ed331b055c4bbc6031d0856d3c4db89a8d16c",
            "csv": "7b5ffe34b60ef36f7c708df4660085ba73f498702daccd5e40e17f999e043205",
        },
        "noisy": {
            "cc": "fcc8214619622f8e9dbe9ad31a771bb70eb3d3c14f899cbd94d6169809dc97e6",
            "ac": "757ac1abee3b534221f77c4ff3cf14f7378619a5e025ca23be97d3d6e79e9d0f",
            "phn": "fd3d25b6bddb0129039a7b5f3bea4d9dad17ad45569a5357894145916a2795ef",
            "name": "d4fcc9ee46af17b2e2f63ff15ca10f0924f838a59f6e07d10e3d7879d2d68fd7",
            "street": "125177b3988a820498ca4dcd4fd15b692792a680c7ed1ea0117eeffdda4948eb",
            "city": "66582fdc87bf1b5d7e21e6a5904d4250649f053cbb4dc4a3262e046dc18a3b50",
            "zip": "c00d9356561133de781f987fc83ed331b055c4bbc6031d0856d3c4db89a8d16c",
            "csv": "e60fec996197cba6cacec0bbaeb4526e9d9f372f3854f073354f981f190d016a",
        },
        "cd": {
            "album": "61fe23fad8ea8590422c906f8ac56e6e9e1b987c1327e97823c6948f33f197e3",
            "price": "177b7a4936c8dce279b6257b464cec164414c772cdc1dd5ae53da4003a2b6e2c",
            "genre": "2c75cea8ae3f1e8cd732eb483c34bf3d99b2a7e1b1ecba1941bb15f94fe7f218",
            "csv": "4eb104d9dd734b7d33691800891712c9ebc3ae089016938fe8b9a4f66bf1b050",
        },
        "book": {
            "title": "a1322f6b8e20d40e2c03081af0f7760b04dd1800266dc3f5aa915ee2ee4ac2db",
            "price": "9c775f5cf7d30263992867d585eb6f4e35bd3062bfee3e049933d8deb1869d4b",
            "format": "7e513f654f97d11e64dbd2d605efd69399694ae6f8bea8ba472091fe915dce12",
            "csv": "5fce57ea2f05d8b896e5a635476d4da2d152ca316fdbb415fe57696e097d8ceb",
        },
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_generated_relations_keep_their_digests(seed):
    relations = generated(seed)
    assert {name: digests(relation) for name, relation in relations.items()} == GOLDEN[seed]
